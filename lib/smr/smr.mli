(** Standard replicated state machine — the baseline Rex is measured
    against (paper Fig. 1, left; "RSM mode" in Fig. 7).

    Consensus-execute: the leader batches incoming requests, drives each
    batch through a Paxos instance, and every replica executes committed
    requests {e sequentially} in a single executor fiber — the
    deterministic sequential execution model that wastes all but one core.
    Application background timers are serialized the same way: the leader
    proposes a timer-tick pseudo-request, so all replicas run the callback
    at the same point in the request order.

    This is the serial executor of {!Rex_core.Log_server}, which owns
    batching, Paxos and the frontend.  The same {!Rex_core.App.factory}
    runs unchanged: its synchronization wrappers see unbound fibers and
    take the native path. *)

type t = Obs.Metric.counter Rex_core.Log_server.t
(** The state is the replica's [smr/requests_executed] counter. *)

val create :
  Sim.Net.t ->
  Sim.Rpc.t ->
  Rex_core.Config.t ->
  node:int ->
  paxos_store:Paxos.Store.t ->
  Rex_core.App.factory ->
  t
(** [Config.workers] is ignored: execution is sequential by design.
    The leader proposes on events, up to [Config.pipeline_depth]
    instances open (4 by default, so a request that arrives during a
    Paxos round is proposed at once unless four are open; DESIGN.md
    §18). *)

val start : t -> unit
val replay : t -> unit
val node : t -> int
val is_primary : t -> bool
val session_table : t -> Rex_core.Session.Table.t
val frontend : t -> Rex_core.Frontend.t
val submit : t -> string -> (string option -> unit) -> unit
val query : t -> string -> string
val app_digest : t -> string
val executed_requests : t -> int
