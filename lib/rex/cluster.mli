(** Harness for a whole Rex deployment inside one simulation: engine,
    network, RPC, the replica group, and the per-node durable state
    (Paxos store + checkpoint disk) that survives crash/restart.  Used by
    tests, benchmarks and examples.

    Two ways to build one:
    - {!create} owns the simulation: it makes a fresh engine whose nodes
      [0 .. n-1] host the replicas;
    - {!create_in} wires a group into an existing engine/network/RPC
      fabric at arbitrary node ids, so several independent groups (a
      sharded fleet, see [lib/shard]) share one virtual clock. *)

type t

val create :
  ?seed:int ->
  ?cores_per_node:int ->
  ?extra_nodes:int ->
  ?net_latency:float ->
  ?agreement:[ `Paxos | `Chain ] ->
  Config.t ->
  App.factory ->
  t
(** Nodes [0 .. n-1] host the replicas listed in [Config.replicas] (which
    must be [0 .. n-1]); [extra_nodes] more nodes (default 1) host clients
    and, for [`Chain], the view manager.  [agreement] picks the agree
    stage: multi-instance Paxos (default) or chain replication
    (paper §7). *)

val create_in :
  ?agreement:[ `Paxos | `Chain ] ->
  ?vm_node:int ->
  client_node:int ->
  Sim.Net.t ->
  Sim.Rpc.t ->
  Config.t ->
  App.factory ->
  t
(** Build the group inside the given fabric.  [Config.replicas] holds
    absolute node ids (any subset of the engine's nodes); [client_node]
    is where {!client} is homed, and hosts the [`Chain] view manager
    unless [vm_node] overrides it. *)

val engine : t -> Sim.Engine.t
val net : t -> Sim.Net.t
val rpc : t -> Sim.Rpc.t

val server : t -> int -> Server.t
(** By replica {e node id} (raises [Invalid_argument] for non-replicas). *)

val servers : t -> Server.t array
val replica_nodes : t -> int list

val client_node : t -> int
(** The node {!client} is homed on. *)

val start : t -> unit
val run : ?until:float -> t -> unit
(** Absolute virtual-time limit. *)

val run_for : t -> float -> unit
(** Relative. *)

val primary : t -> Server.t option

val await_primary : ?limit:float -> t -> Server.t
(** Run the simulation until some replica is primary (raises
    [Failure] after [limit] seconds, default 30). *)

val crash : t -> int -> unit
val restart : t -> int -> unit
(** Recreate the replica server from its surviving Paxos store and
    checkpoint disk, and start it. *)

(** {1 Live topology}

    Membership changes driven through the replicated log (Paxos
    agreement only — [Invalid_argument] under [`Chain]).  Each call
    pumps the simulation from driver context until the config entry
    commits, so these are used between [run] calls like {!crash} and
    {!restart}. *)

val members : t -> int list
(** Current committed membership (initially [Config.replicas]). *)

val set_on_new_server : t -> (Server.t -> unit) option -> unit
(** Hook fired after any server (re)creation — {!restart},
    {!add_replica} — so harnesses can re-wire frontend taps. *)

val add_replica : ?limit:float -> t -> int
(** Grow the engine by one node, commit [members @ [node]] through the
    log, then create and start the newcomer (bootstrapped by Learn
    catch-up and checkpoint fast-forward).  Returns the new node id. *)

val remove_replica : ?limit:float -> t -> int -> unit
(** Commit the shrunk config, then crash the retired node.  The removed
    replica demotes itself when the entry applies, before the crash. *)

val replace_replica : ?limit:float -> t -> int -> int
(** [add_replica] then [remove_replica]: the two single-change entries
    that implement replacement with quorum intersection at each step.
    Returns the replacement's node id. *)

val rolling_restart : ?pause:float -> t -> unit
(** Crash/restart each current member in turn, waiting [pause] (default
    1 s) around each restart and re-electing a primary in between — the
    rolling-upgrade schedule. *)

val client : t -> Client.t
(** A client homed on {!client_node}. *)

val check_no_divergence : t -> unit
(** Raises [Failure] if any live replica detected divergence. *)

(** {1 Builder}

    The construction plumbing shared by the benches, the demo binary and
    the sharded fleet, so they stop copy-pasting it. *)

val launch :
  ?seed:int ->
  ?cores_per_node:int ->
  ?extra_nodes:int ->
  ?net_latency:float ->
  ?agreement:[ `Paxos | `Chain ] ->
  ?limit:float ->
  ?before_start:(t -> unit) ->
  Config.t ->
  App.factory ->
  t
(** [create] + [start] + [await_primary] in one step: returns a running
    cluster with a primary elected.  [before_start] runs between
    construction and start (e.g. to enable tracing on the engine). *)
