(** The deployer: a whole replica group inside one simulation — engine,
    network, RPC, the servers, and the per-node durable state (Paxos
    store + checkpoint disk) that survives crash/restart.  Used by tests,
    benchmarks, examples and the checker, for every stack.

    A group is generic over its stack's server ['s]: Rex's {!Server.t}
    ({!create}, {!create_in}) or a log-order {!Log_server.t} — SMR, the
    CBASE/early sched stacks, Eve ({!create_log}, {!create_log_in}).
    Everything else works on both.  A restarted Rex server rebuilds from
    its checkpoint disk and the log; a restarted log-order server
    re-executes the committed log its Paxos store keeps
    ({!Log_server.replay}).  A newcomer added by {!add_replica} catches
    up through Paxos [Learn] (plus, for Rex, a checkpoint
    fast-forward). *)

type 's group
(** A replica group of servers ['s]. *)

type t = Server.t group
(** A Rex group. *)

(** {1 Rex groups} *)

val create :
  ?seed:int ->
  ?cores_per_node:int ->
  ?net_latency:float ->
  ?agreement:[ `Paxos | `Chain ] ->
  Config.t ->
  App.factory ->
  t
(** A fresh engine whose nodes [0 .. n-1] host the replicas listed in
    [Config.replicas] (which must be [0 .. n-1]); node [n] hosts clients
    and, for [`Chain], the view manager.
    [agreement] picks the agree stage: multi-instance Paxos (default) or
    chain replication (paper §7). *)

val create_in :
  ?agreement:[ `Paxos | `Chain ] ->
  ?vm_node:int ->
  client_node:int ->
  Sim.Net.t ->
  Sim.Rpc.t ->
  Config.t ->
  App.factory ->
  t
(** Build the group inside an existing fabric, so several independent
    groups (a sharded fleet, see [lib/shard]) share one virtual clock.
    [Config.replicas] holds absolute node ids (any subset of the
    engine's nodes); [client_node] is where {!client} is homed, and
    hosts the [`Chain] view manager unless [vm_node] overrides it. *)

val launch :
  ?seed:int ->
  ?cores_per_node:int ->
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

(** {1 Log-order groups} *)

type 'x log_mk =
  Sim.Net.t -> Sim.Rpc.t -> node:int -> paxos_store:Paxos.Store.t ->
  'x Log_server.t
(** The stack's constructor with its config and application applied,
    called once per replica and again by {!restart}. *)

val create_log :
  ?seed:int -> ?cores_per_node:int -> replicas:int list -> 'x log_mk ->
  'x Log_server.t group
(** Like {!create} (default seed 7, 8 cores per node, one client node,
    default network latencies) for a log-order stack. *)

val create_log_in :
  Sim.Net.t -> Sim.Rpc.t -> client_node:int -> replicas:int list ->
  'x log_mk -> 'x Log_server.t group
(** Like {!create_in} for a log-order stack. *)

(** {1 Any group} *)

val engine : 's group -> Sim.Engine.t
val net : 's group -> Sim.Net.t
val rpc : 's group -> Sim.Rpc.t

val server : 's group -> int -> 's
(** By replica {e node id} (raises [Invalid_argument] for non-replicas). *)

val servers : 's group -> 's array
(** The current server of every node that ever hosted a replica, in
    {!replica_nodes} order; {!restart} replaces an entry. *)

val replica_nodes : 's group -> int list

val client_node : 's group -> int
(** The node {!client} is homed on. *)

val node : 's group -> 's -> int
val frontend : 's group -> 's -> Frontend.t

val start : 's group -> unit
val run : ?until:float -> 's group -> unit
(** Absolute virtual-time limit. *)

val run_for : 's group -> float -> unit
(** Relative. *)

val primary : 's group -> 's option
(** A live server that believes it leads. *)

val live : 's group -> 's list
(** The servers whose node is up. *)

val digests : 's group -> string list
(** The app digest of every {!live} server. *)

val await_primary : ?limit:float -> 's group -> 's
(** Run the simulation in 50 ms steps until some replica is primary
    (raises [Failure] after [limit] seconds, default 30).  Returns at
    once if one already is. *)

val crash : 's group -> int -> unit

val restart : 's group -> int -> unit
(** Recreate the replica server from its surviving Paxos store and
    checkpoint disk, and start it.  Needs no fiber, so [crash] then
    [restart] may run from a scheduled event. *)

(** {1 Live topology}

    Membership changes driven through the replicated log
    ([Invalid_argument] under Rex's [`Chain] agreement).  Each call
    pumps the simulation from driver context until the config entry
    commits, so these are used between [run] calls like {!crash} and
    {!restart}. *)

val members : 's group -> int list
(** Current committed membership (initially the replica list). *)

val set_on_new_server : 's group -> ('s -> unit) option -> unit
(** Hook fired after any server (re)creation — {!restart},
    {!add_replica} — so harnesses can re-wire frontend taps. *)

val add_replica : ?limit:float -> 's group -> int
(** Grow the engine by one node, commit [members @ [node]] through the
    log, then create and start the newcomer.  Returns the new node id. *)

val remove_replica : ?limit:float -> 's group -> int -> unit
(** Commit the shrunk config, then crash the retired node.  The removed
    replica demotes itself when the entry applies, before the crash. *)

val replace_replica : ?limit:float -> 's group -> int -> int
(** [add_replica] then [remove_replica]: the two single-change entries
    that implement replacement with quorum intersection at each step.
    Returns the replacement's node id. *)

val rolling_restart : ?pause:float -> 's group -> unit
(** Crash/restart each current member in turn, waiting [pause] (default
    1 s) around each restart and re-electing a primary in between — the
    rolling-upgrade schedule. *)

val client : 's group -> Client.t
(** A client homed on {!client_node}, addressed to the current
    {!members}. *)

val check_no_divergence : 's group -> unit
(** Raises [Failure] if any live replica detected divergence (Rex only:
    a log-order server never reports one). *)
