(** An execute-verify replica in the style of Eve (Kapritsos et al.,
    OSDI 2012) — the system paper §5 compares Rex against.

    A {e mixer} on the leader packs incoming requests into batches whose
    members are believed non-conflicting (using an application-supplied
    conflict-key oracle).  The batch itself goes through consensus; every
    replica then executes the batch {e concurrently and independently} on
    its own thread pool and sends a digest of its state and responses to
    the leader.  If the digests diverge — a conflict the mixer missed —
    all replicas roll the batch back and re-execute it {e sequentially},
    which is deterministic.  Rollback restores a session-table
    {!Rex_core.Session.Table.savepoint} and the application's own
    checkpoint, both taken before the batch, so its cost follows the
    batch and the app, not the number of client sessions.

    Faithful to the paper's critique, this implementation:
    - treats a whole request as the unit of parallelism (the f = 100%
      configuration of Fig. 8a): two requests that share any conflict key
      never run in the same batch, no matter how briefly they would have
      held a common lock;
    - rejects applications with background timers — "Eve uses the end of
      processing a request batch as the point to check state consistency,
      assuming that the incoming requests are the only triggers to state
      changes" (§5);
    - supports [miss_rate], the probability that the mixer misses a true
      conflict, to study the cost of imperfect mixers (rollback + serial
      re-execution).

    This is the mix-execute-verify executor of {!Rex_core.Log_server},
    which owns Paxos and the frontend; the mixer is the core's batcher,
    running on the leader only.  Its batches await execution: the leader
    proposes a batch when a request reaches it idle, and otherwise right
    after the running batch's verdict, so a batch holds what arrived
    while the one before it ran.  The same {!Rex_core.App.factory}
    applications run unchanged: their synchronization wrappers take the
    native path. *)

type config = {
  base : Rex_core.Config.t;
      (** replicas, [workers] (executor threads per replica), election,
          lease and admission settings (the admission queue-depth probe
          is the mixer's pending queue) *)
  miss_rate : float;  (** P(mixer misses a true conflict) *)
}

val default_config :
  ?workers:int -> ?miss_rate:float -> replicas:int list -> unit -> config
(** {!Rex_core.Config.make}'s defaults, 8 workers, batches of at most 64
    and a perfect mixer. *)

type state

type t = state Rex_core.Log_server.t

type stats = {
  requests_executed : int;
  replies_sent : int;
  batches : int;
  rollbacks : int;  (** batches that diverged and were re-run serially *)
  avg_batch : float;
}
(** A view over the replica's [eve/*] Obs counters. *)

val create :
  Sim.Net.t ->
  Sim.Rpc.t ->
  config ->
  node:int ->
  paxos_store:Paxos.Store.t ->
  conflict_keys:(string -> string list) ->
  Rex_core.App.factory ->
  t
(** Raises [Invalid_argument] if the application registers background
    timers (unsupported by the execute-verify model, §5). *)

val start : t -> unit
val replay : t -> unit
val node : t -> int
val is_primary : t -> bool
val session_table : t -> Rex_core.Session.Table.t
val frontend : t -> Rex_core.Frontend.t

val response_digest : string array -> string
(** The responses' part of a batch digest: a hash folded over every
    response in order, so replicas that disagree on any one response of
    a batch disagree on the digest. *)

val submit : t -> string -> (string option -> unit) -> unit
val query : t -> string -> string
val app_digest : t -> string
val stats : t -> stats
