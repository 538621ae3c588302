(** Request/response RPC over {!Net} with correlation ids and timeouts.

    [call] parks the calling fiber until the reply arrives or the timeout
    fires; lost messages (drops, partitions, crashed callee) surface as
    [None].  Servers run each request in its own fiber and may block.
    A request or reply frame that does not decode is dropped like a lost
    message and counted in [rpc/decode_errors]. *)

type t

val create : Net.t -> t
val net : t -> Net.t

val attach_node : t -> node:int -> unit
(** Register the reply port on a node added to the engine after
    {!create} (see {!Sim.Engine.add_node}) so RPC calls issued from it
    can complete. *)

val serve : t -> node:int -> port:Net.port -> (src:int -> string -> string) -> unit
(** Register a service; the handler's return value is the reply. *)

val serve_async :
  t -> node:int -> port:Net.port ->
  (src:int -> string -> reply:(string -> unit) -> unit) -> unit
(** Like {!serve} but the handler replies explicitly (possibly never — the
    caller then times out). *)

(** A round-trip estimator (RFC 6298): smoothed RTT and its mean
    deviation. *)
module Rtt : sig
  type t

  val observe : t -> float -> unit
  (** One round trip's duration, in seconds. *)

  val timeout : t -> floor:float -> float option
  (** [srtt + 4 × rttvar], at least [floor]; [None] before the first
      sample. *)
end

val rtt : t -> node:int -> port:Net.port -> Rtt.t
(** The one estimator for calls from [node] to [port], shared by every
    caller there.  Nothing here feeds it: callers observe the round
    trips they count. *)

val call :
  t -> src:int -> dst:int -> port:Net.port -> ?timeout:float -> string ->
  string option
(** Default timeout: 1 s of virtual time. *)
