(** Complete-history recorder for the correctness harness.

    Runs inside the deterministic simulator: client drivers bracket every
    call with {!invoke}/{!finish} (or use {!record}), and frontend taps
    ({!wire}) report what the replicas actually committed, so a
    client-side timeout whose request did execute can be {e resolved}
    instead of staying ambiguous.

    Fate resolution is keyed on the request {e payload} and is only
    applied when the payload is unique across the whole history — the
    runner makes every effectful request unique (values / idempotency
    tags embed the op id), reads need no resolution.  This sidesteps
    [(client, seq)] bookkeeping across client retries and sharded
    routers, and is sound: a commit tap for a unique payload proves that
    exact logical request took effect. *)

type fate =
  | Returned of string  (** the client saw this response *)
  | Timed_out
      (** the client gave up and no tap resolved the fate: the request
          may or may not have executed (at-most-once ambiguity) *)
  | Resolved of string
      (** the client timed out, but a frontend tap saw the request
          commit with this response: it {e did} execute, and for
          linearization purposes it never returned (return time +∞) *)

type entry = {
  id : int;  (** dense, in invocation order *)
  client : int;
  request : string;
  invoke : float;
  return_ : float;
      (** when the client saw the response or gave up; [infinity] for an
          operation still pending when the run was cut off *)
  fate : fate;
}

type stats = {
  ops : int;
  completed : int;  (** [Returned] *)
  timeouts : int;  (** [Timed_out] after resolution *)
  resolved : int;  (** [Resolved] *)
  double_commits : int;
      (** extra commits observed beyond the first for a payload that one
          op invoked (the ops {!resolve} may resolve) — in a correct
          stack always 0; the dedup-off injection makes it positive *)
}

type t

val create : ?rejected:(string -> bool) -> Sim.Engine.t -> t
(** [rejected] (default: none) marks the replies that reject an attempt
    rather than execute it — a shard's wrong-shard or migrating answer.
    A rejected attempt is not an execution: its commit and reply-cache
    taps neither resolve an op nor count in [double_commits].  An app's
    own error reply is not a rejection. *)

val wire : t -> Rex_core.Frontend.t list -> unit
(** Attach this recorder's tap to each frontend (replacing any previous
    tap).  Call again after a replica restart: the recreated server has a
    fresh frontend. *)

val invoke : t -> client:int -> request:string -> int
(** Timestamp and record an invocation; returns the op id. *)

val finish : t -> int -> string option -> unit
(** Timestamp the response ([Some resp]) or the client giving up
    ([None]). *)

val record :
  t -> client:int -> request:string -> (unit -> string option) ->
  string option
(** [invoke] / run the thunk / [finish], returning the thunk's result. *)

val resolve : t -> unit
(** Fold tap observations into the entries: every [Timed_out] entry whose
    payload is globally unique and was seen committing becomes
    [Resolved].  Idempotent; call after the run settles, before
    {!entries}. *)

val entries : t -> entry list
(** In id order. *)

val stats : t -> stats

val to_lines : t -> string list
(** Deterministic one-line-per-op rendering (same seed ⇒ byte-identical
    output), for repro artifacts and golden comparisons. *)
