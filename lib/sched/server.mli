(** Conflict-aware parallel SMR stacks (DESIGN.md §12): consensus-execute
    like {!Smr}, but committed requests feed {!Exec} — a CBASE-style
    conflict DAG ([Cbase]) or early class-to-worker scheduling
    ([Early]) — instead of a single sequential executor.  No
    record/replay: commuting requests interleave freely, conflicting
    ones execute in log order on every replica, so state stays identical
    without a trace.

    This is the {!Exec} executor of {!Rex_core.Log_server}, which owns
    batching, Paxos and the frontend.  Background timers are proposed
    pseudo-requests executed as global barriers: every replica runs the
    callback at the same log position.  Lease/quorum reads park until no
    in-flight write claims one of the read's conflict keys. *)

type t = Exec.t Rex_core.Log_server.t

val create :
  Sim.Net.t ->
  Sim.Rpc.t ->
  Rex_core.Config.t ->
  node:int ->
  paxos_store:Paxos.Store.t ->
  mode:Exec.mode ->
  conflict:Conflict.oracle ->
  Rex_core.App.factory ->
  t
(** [Config.workers] sizes the worker pool (min 1); [conflict] is the
    app-level oracle ({!Exec} decodes the session envelopes).  The
    leader proposes on events, as SMR's does (DESIGN.md §18). *)

val start : t -> unit
val replay : t -> unit
val node : t -> int
val is_primary : t -> bool
val session_table : t -> Rex_core.Session.Table.t
val frontend : t -> Rex_core.Frontend.t
val exec : t -> Exec.t

val submit : t -> string -> (string option -> unit) -> unit
val query : t -> string -> string
val app_digest : t -> string
val executed_requests : t -> int

val checkpoint : t -> string
(** Drain the execution stage to a quiescent cut, then snapshot app +
    session table through the codec path.  Call from a fiber. *)

val restore : t -> string -> unit
