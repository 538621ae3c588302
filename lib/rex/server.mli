(** A Rex replica server: the execute-agree-follow engine (paper §2–§4).

    Each replica runs one [Server.t].  The Paxos leader doubles as the Rex
    {e primary}: its worker slots pull client requests from a run queue,
    execute them concurrently in record mode, and a proposer fiber
    periodically cuts the grown trace into a delta and drives it through
    consensus.  {e Secondaries} apply committed deltas to their copy of
    the trace and replay them concurrently in follow mode.  The primary
    answers a client once the trace containing its request's completion
    has committed — never waiting for secondary replay, except through the
    flow-control window that keeps secondaries close enough for fast
    failover.

    Checkpoints (paper §3.3) are driven by the primary but written by
    secondaries: the primary pauses all slots at a request boundary,
    records per-slot [Ckpt_mark] events, and ships the cut in its next
    proposal; a secondary replaying up to that cut snapshots the
    application and saves it to its {!Checkpoint.Disk.t}.

    Leadership changes map to role changes: [OnBecomeLeader] finishes
    replaying the committed trace and switches the runtime to record mode
    mid-flight (even mid-request); [OnNewLeader] discards the speculative
    execution by rebuilding the replica from its latest checkpoint plus
    the committed trace — the full-machine rollback of §5.2. *)

type t

type role = Primary | Secondary

type stats = {
  requests_executed : int;  (** handlers completed on this replica *)
  replies_sent : int;  (** requests acknowledged to clients (committed) *)
  queries_served : int;
  proposals_sent : int;
  proposal_bytes : int;  (** trace-delta bytes shipped through consensus *)
  request_payload_bytes : int;  (** request bytes inside those deltas *)
  checkpoints_written : int;
  rollbacks : int;  (** demotions that discarded speculative state *)
}

val create :
  ?make_agreement:(t -> Agreement.callbacks -> Agreement.t) ->
  Sim.Net.t ->
  Sim.Rpc.t ->
  Config.t ->
  node:int ->
  paxos_store:Paxos.Store.t ->
  disk:Checkpoint.Disk.t ->
  App.factory ->
  t
(** [make_agreement] substitutes the agree stage (default:
    {!Agreement.of_paxos}, multi-instance Paxos per the paper; see
    {!Chain} for chain replication, §7). *)

val start : t -> unit

val node : t -> int

val session_table : t -> Session.Table.t
(** The replica's client-session table (replicated via {!Session.wrap};
    exposed for tests and tooling). *)

val frontend : t -> Frontend.t
(** The replica's client-facing frontend, for attaching history taps
    ({!Frontend.set_tap}, used by [lib/check]). *)

val role : t -> role
val is_primary : t -> bool

val submit : t -> string -> (string option -> unit) -> unit
(** Enqueue an update request on this replica (primary only — callers
    should route via {!Client} otherwise).  The callback fires with the
    response once committed, or [None] if the request was dropped by a
    role change. *)

val query : t -> string -> string
(** Execute a read-only request natively on this replica: speculative
    state on a primary, committed state on a secondary (paper §6.5). *)

val request_checkpoint : t -> unit
(** Manually trigger a checkpoint (also driven by
    [Config.checkpoint_interval]). *)

val app_digest : t -> string
val committed_cut : t -> Trace.Cut.t
val executed_cut : t -> Trace.Cut.t
val runtime : t -> Rexsync.Runtime.t
val stats : t -> stats
val runtime_stats : t -> Rexsync.Runtime.stats
val queue_length : t -> int

val idle_workers : t -> int
(** Workers parked on an empty request queue.  A request wakes one of
    them; a checkpoint pause and a rebuild wake them all. *)

val divergence : t -> string option
(** Set when replay detected divergence (§5 validity checking); the
    replica halts its slots. *)

val divergence_report : t -> string option
(** When diverged: a GraphViz rendering of the trace neighbourhood around
    the replica's replay position, with resource names — the §6.1 race
    debugging workflow. *)

val agreement : t -> Agreement.t

val peers : t -> int list
(** Current replica membership as the agreement layer sees it — the
    static config until a committed reconfiguration changes it. *)

val reconfig : t -> int list -> bool
(** Propose a membership change through the replicated log (single
    replica added or removed per call).  [false] when this replica
    cannot propose right now (not leader, proposal in flight, or the
    transition is not a one-replica change). *)
