(** The shared client-facing frontend: one implementation of RPC
    registration, envelope decoding, [Not_leader] redirection, duplicate
    short-circuiting and reply emission, used by all three replication
    stacks (Rex, SMR, Eve).

    Before this layer each stack hand-rolled its own intake handler; the
    three copies agreed on the wire format by luck and none of them knew
    about request identity.  The frontend owns the protocol surface —
    stacks supply a small {!backend} vtable and get identical client
    semantics, including exactly-once for enveloped requests (via a
    {!Session.Table.t} that the stack also threads through its execution
    path with {!Session.wrap}). *)

open Sim

type backend = {
  is_leader : unit -> bool;
  leader_hint : unit -> int option;
  enqueue : string -> (string option -> unit) -> unit;
      (** Hand a (still-enveloped) update request to the stack's run
          queue.  The callback must fire exactly once: [Some response]
          when the request's effect is durable (committed/verified), or
          [None] when a role change dropped it. *)
}

(** The linearizable read path (leases + quorum reads), supplied by
    every stack.  The frontend picks the cheapest safe route per query:
    local under a live leader lease; otherwise a majority read-index
    round served locally once the executor catches up;
    otherwise the ordered path (enqueue on the leader, redirect
    elsewhere). *)
type reads = {
  r_peers : unit -> int list;
      (** all replica node ids, including this one — a closure because
          reconfiguration changes membership while reads are in flight *)
  r_lease_valid : unit -> bool;
      (** serve locally right now, fenced by a quorum lease *)
  r_read_index : unit -> int;
      (** this replica's highest possibly-chosen sequence number *)
  r_applied_upto : unit -> int;
      (** highest sequence number whose effects are fully queryable in
          local state, or [-1] while mid-replay (not at a clean point) *)
  r_read_local : string -> (string option -> unit) -> unit;
      (** evaluate the query against local state; the callback fires when
          the answer is safe to release ([None]: dropped by a role
          change).  The Rex primary gates it on commit of the observed
          speculative prefix; other stacks answer immediately. *)
  r_lease_unsafe : bool;
      (** {b testing only}: serve local reads whenever [is_leader], with
          no lease check — the fencing-disabled canary *)
}

(** Overload control at the intake (DESIGN.md §14).  Two mechanisms:

    - {e backpressure}: while the stack's run-queue depth is at or above
      [a_queue_soft], every intake handler sleeps 2 ms before
      touching dedup state — closed-loop clients slow down, and the delay
      happens {e before} the session-table lookup so it cannot race a
      concurrent retry into a duplicate enqueue;
    - {e admission rejection}: a {e new} logical request (session-table
      miss) is answered [Busy] when the run queue is at [a_queue_hard],
      the node-wide inflight set is at [a_max_global], or the client's own
      inflight count is at [a_max_per_client].  Retries of inflight or
      committed requests are never rejected — they join or hit the cache,
      preserving exactly-once for everything already admitted.

    Each bound is disabled at 0.  Obs counters under subsystem [frontend]:
    [admitted], [adm_reject_queue|global|client], [backpressure_delays],
    gauge [inflight]. *)
type admission

val admission :
  ?max_global:int ->
  ?max_per_client:int ->
  ?queue_soft:int ->
  ?queue_hard:int ->
  queue_depth:(unit -> int) ->
  unit ->
  admission
(** [queue_depth] probes the stack's pending-work measure (proposal queue,
    batch queue, uncommitted replies — each stack supplies its own).
    Defaults: every bound 0 (off).
    @raise Invalid_argument on negative bounds or [queue_soft] above a
    non-zero [queue_hard]. *)

type t
(** Handle on a registered frontend, for attaching history taps. *)

(** What a history tap observes at the protocol surface, keyed by the
    envelope's [(client, seq)] request identity.  [Tap_commit] fires when
    the backend reports the request durable — the authoritative "this
    request took effect" signal that lets a checker resolve the fate of a
    client-side timeout (see [lib/check]). *)
type tap_event =
  | Tap_enqueue of { client : int; seq : int; payload : string }
  | Tap_commit of { client : int; seq : int; payload : string; response : string }
  | Tap_dup of { client : int; seq : int; payload : string; response : string }
      (** A retry answered from the session table's reply cache. *)
  | Tap_drop of { client : int; seq : int }
      (** Answered [Dropped]: stale retry, or a role change discarded it. *)
  | Tap_reject of { client : int; seq : int; payload : string }
      (** Answered [Busy] by admission control before any enqueue — the
          request had no effect, which is exactly what the open-loop
          checker's rejection accounting asserts. *)

val set_tap : t -> (tap_event -> unit) option -> unit
(** At most one tap per frontend; [None] detaches.  The tap must not
    block (it runs inside the intake handler and commit callbacks). *)

val node : t -> int

val register :
  Rpc.t ->
  node:int ->
  table:Session.Table.t ->
  ?admission:admission ->
  reads:reads ->
  backend ->
  t
(** Register the {!Client.client_port} and {!Client.query_port} services
    on [node], plus the {!Client.read_port} probe service that quorum
    reads ask (obs counters under subsystem [frontend]:
    [reads_fast_lease], [reads_fast_quorum], [reads_ordered_fallback],
    [quorum_read_rounds], …).  Intake pipeline
    for enveloped requests:

    + not leader → [Not_leader] with the backend's hint;
    + a retry of a request currently {e in flight} joins the original's
      callback list (one execution, every retry answered on commit) —
      checked before the session table so an executed-but-uncommitted
      request is never answered early from the cache;
    + a retry of a {e committed} request → cached reply, no execution
      ([frontend/dup_hits]);
    + otherwise enqueue, remembering the in-flight entry until the
      backend's callback fires.

    Raw (non-enveloped) requests skip the dedup steps.  Malformed
    envelopes answer [Dropped]. *)

val encode_batch : string list -> string
val decode_batch : string -> string list
(** The batch wire format of the log-order core ({!Log_server}).
    Raises {!Codec.Decode_error} on malformed input. *)

(** Flow-control bookkeeping (paper §6.3): secondaries report executed
    counts; the primary stalls intake when the slowest live secondary
    falls more than [window] events behind.  Extracted from the Rex
    server so the frontend owns everything between the wire and the run
    queue. *)
module Flow : sig
  type t

  val create : Engine.t -> window:int -> staleness:float -> t
  val note : t -> src:int -> count:int -> unit
  (** Record a secondary's progress report and wake parked fibers. *)

  val ok : t -> mine:int -> bool
  (** May the primary (at [mine] recorded events) admit more work? *)

  val park : t -> unit
  (** Park the calling fiber until the next {!note}/{!wake}, or until the
      first of the fresh reports goes stale, whichever comes first: a
      report older than [staleness] no longer gates {!ok}. *)

  val wake : t -> unit
  val reset : t -> unit
end

(** Commit-gated reply release: responses computed speculatively on the
    Rex primary wait here until the trace cut containing their request
    commits.  Extracted from the Rex server's reply block. *)
module Replies : sig
  type t

  val create : unit -> t

  val add :
    t -> id:Event.Id.t -> t0:float -> resp:string ->
    cb:(string option -> unit) -> unit
  (** [t0] is the request's submit time, reported back by {!release} for
      latency accounting. *)

  val release :
    t -> upto:Trace.Cut.t ->
    (float * string * (string option -> unit)) list
  (** Detach and return the entries whose event the cut [upto] includes;
      the caller fires their callbacks (and owns metric emission). *)

  val drop : t -> (float * string * (string option -> unit)) list
  (** Detach everything — a demotion dropping speculative replies. *)

  val length : t -> int
end
