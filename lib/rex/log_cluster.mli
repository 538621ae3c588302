(** Harness for a whole log-order deployment (SMR, the CBASE/early
    sched stacks or Eve; {!Log_server}) inside one simulation: engine,
    network, RPC, the replica group and the per-node Paxos stores that
    survive a crash.  The names follow {!Cluster}, Rex's deployer, which
    keeps what only Rex has: checkpoint disks, [`Chain] agreement and
    log-driven reconfiguration. *)

type 'x mk =
  Sim.Net.t -> Sim.Rpc.t -> node:int -> paxos_store:Paxos.Store.t ->
  'x Log_server.t
(** The stack's constructor with its config and application applied,
    called once per replica and again by {!upgrade}. *)

type 'x t

val create :
  ?seed:int -> ?cores_per_node:int -> replicas:int list -> 'x mk -> 'x t
(** A fresh engine (default seed 7, 8 cores per node) whose nodes
    [0 .. n-1] host the replicas, which must be [0 .. n-1], and node
    [n] the clients; default network latencies.  The servers are
    created, not started. *)

val create_in :
  Sim.Net.t -> Sim.Rpc.t -> client_node:int -> replicas:int list ->
  'x mk -> 'x t
(** Build the group at the given nodes of an existing fabric, so several
    groups share one virtual clock. *)

val start : 'x t -> unit

val await_primary : ?fallback:float -> 'x t -> 'x Log_server.t
(** Run the engine to 1.0 s of virtual time (absolute) and, if no live
    replica leads then, on to [fallback] (default 3.0 s).  Raises
    [Failure] if still none does. *)

val engine : 'x t -> Sim.Engine.t
val net : 'x t -> Sim.Net.t
val rpc : 'x t -> Sim.Rpc.t
val replica_nodes : 'x t -> int list
val client_node : 'x t -> int

val servers : 'x t -> 'x Log_server.t array
(** The current server of each replica node, in {!replica_nodes}
    order; {!upgrade} replaces an entry. *)

val primary : 'x t -> 'x Log_server.t option
(** A live replica that believes it leads. *)

val live : 'x t -> 'x Log_server.t list
(** The servers whose node is up. *)

val digests : 'x t -> string list
(** {!Log_server.app_digest} of every {!live} server. *)

val client : 'x t -> Client.t
(** A fresh client homed on {!client_node}. *)

val crash : 'x t -> int -> unit

val upgrade : 'x t -> int -> unit
(** The rolling-upgrade step for stacks without checkpoint recovery:
    crash and restart the node, create a new server over the same Paxos
    store, {!Log_server.replay} the committed log into it, then start
    it.  Needs no fiber, so it may run from a scheduled event. *)

val set_on_new_server : 'x t -> ('x Log_server.t -> unit) option -> unit
(** Hook fired after {!upgrade} creates a server, e.g. to re-wire a
    frontend tap. *)
