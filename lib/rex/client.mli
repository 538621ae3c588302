(** Client library: leader discovery, retries, and the client/replica wire
    format. *)

type reply =
  | Ok_reply of string
  | Not_leader of int option
  | Dropped
  | Busy
      (** Shed by frontend admission control: the replica is the leader
          but over its inflight/queue bounds.  Clients back off and retry
          the {e same} envelope (no leader rotation) — the session table
          makes the retry idempotent. *)

val encode_reply : reply -> string
val decode_reply : string -> reply

val client_port : string
val query_port : string

val read_port : string
(** Quorum-read probe service: replies with the replica's read index
    (see [Paxos.Replica.read_index]) as a varint. *)

(** {1 The retry core, shared by {!call}, {!query} and [Shard.Router]} *)

(** The believed leader among a list of replicas.  A redirect, a
    rotation or new nodes bump its version.  A rotation names the
    version its attempt was sent under and is ignored once that is
    stale, so a late timeout cannot undo a newer redirect. *)
module Guess : sig
  type t

  val create : int list -> t
  val leader : t -> int
  val version : t -> int

  val redirect : t -> int -> unit
  (** Point at a [Not_leader] hint's node; one not in the list is ignored. *)

  val rotate : t -> version:int -> unit

  val set_nodes : t -> int list -> unit
  (** Keeps the believed leader if it is among the new nodes, else
      points at the first. *)
end

type call_outcome =
  | Reply of string
  | Shed
      (** every attempt was answered with a definitive non-admission
          (at least one [Busy], the rest [Not_leader]): the request was
          never enqueued anywhere, so it is certain never to execute —
          the open-loop load engine's rejection accounting relies on
          this *)
  | Gave_up
      (** retries exhausted with at least one ambiguous attempt
          (transport timeout or [Dropped]): the request may or may not
          have executed *)

(** Back-off schedule: sleep [redirect] after a [Not_leader]; after a
    [Busy], and after a timeout or [Dropped] if [after_timeout], sleep
    a pause that starts at [first] and doubles up to [cap]. *)
type backoff = { redirect : float; first : float; cap : float; after_timeout : bool }

(** [send]'s counter hook: an attempt goes out ([Hop]), ends in a
    timeout, [Dropped] or [Busy] ([Retry]), or in [Not_leader]
    ([Redirect]). *)
type event = Hop | Retry | Redirect

val send :
  Sim.Rpc.t -> me:int -> Guess.t -> backoff -> ?on:int ->
  ?count:(event -> unit) -> retries:int -> timeout:float -> port:string ->
  string -> call_outcome
(** Up to [retries] attempts of the payload on [port]: the first to [on]
    (default: the guess's leader), the rest to the guess's leader.  The
    payload is resent verbatim, so an envelope keeps its identity. *)

(** A session's request seqs, minted in one place for {!t} and
    [Shard.Router].  A call waits before its first attempt while its seq
    is {!Session.Table.default_window} or more past the oldest seq still
    in flight on the session: the replicas' reply window then always
    covers every live call, so a retry is never answered [Stale] (which
    the frontend reports as [Dropped]).  A call that does not wait costs
    no simulation event. *)
module Seqs : sig
  type t

  val create : unit -> t

  val peek : t -> int
  (** The seq the next {!with_seq} mints. *)

  val with_seq : t -> (int -> 'a) -> 'a
  (** Mint the next seq, wait (parked) until it is within the window of
      the oldest unfinished seq, run the call, and retire the seq when
      the call returns or raises, also when its fiber is killed while
      waiting.  Must run in a fiber. *)
end

type t
(** A client handle.  Concurrent calls on one handle, from several
    fibers, are safe: each gets its own session seq ({!Seqs}), and they
    share one {!Guess.t}, whose versions keep one call's timeout from
    undoing another's redirect. *)

val create : Sim.Rpc.t -> me:int -> replicas:int list -> t
(** Allocates a session identity ({!client_id}) from the simulation
    engine; every {!call} is tagged with it so replicas can deduplicate
    retries (see {!Session}). *)

val client_id : t -> int

val peek_seq : t -> int
(** The sequence number the next {!call} will stamp on its envelope.
    [(client_id, peek_seq)] therefore names the upcoming request before
    it is sent — the history recorder (lib/check) uses this to correlate
    a client-side timeout with the frontend tap events that reveal the
    request's fate.  With concurrent calls on the handle, read it and
    call with no yield in between. *)

val call : ?retries:int -> ?timeout:float -> t -> string -> string option
(** Submit an update request; follows leader hints and retries on
    timeout.  [None] after exhausting retries.  The request travels in a
    {!Session.Envelope} whose [(client, seq)] identity is reused on
    every retry, so an acknowledged request executed exactly once; only
    a [None] return leaves at-most-once ambiguity (the request may or
    may not have executed). *)

val call_outcome :
  ?retries:int -> ?timeout:float -> t -> string -> call_outcome
(** {!call}, reporting how a failed attempt ended instead of collapsing
    both failure modes into [None]. *)

val query : ?on:int -> ?retries:int -> ?timeout:float -> t -> string -> string option
(** Read-only request, first tried on [on] (default: the believed
    leader).  Follows [Not_leader] hints and rotates on timeouts exactly
    like {!call}, sharing its leader-guess state.  [None] after
    exhausting [retries]. *)

val leader_guess : t -> int
