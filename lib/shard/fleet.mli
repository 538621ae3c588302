(** A fleet of independent Rex replica groups in one simulation.

    N {!Rex_core.Cluster}s share a single {!Sim.Engine} (one virtual
    clock, one seed), a network and an RPC fabric, with disjoint node-id
    ranges: group [g] owns nodes [g*r .. g*r + r - 1], the client/router
    node comes after every replica.  Cross-shard load, key skew and
    per-shard failover therefore compose deterministically — kill one
    group's primary and the other groups' virtual-time throughput is
    untouched while that group elects a new leader.

    Each group runs the application factory wrapped however the caller
    chooses (typically {!Partition.factory}); routing happens in
    {!Router}. *)

type t

val create :
  ?seed:int ->
  ?cores_per_node:int ->
  ?net_latency:float ->
  ?vnodes:int ->
  ?config:(group:int -> replicas:int list -> Rex_core.Config.t) ->
  groups:int ->
  (map:Shard_map.t -> group:int -> Rex_core.App.factory) ->
  t
(** Each group has 3 replicas, and one more node hosts the clients.
    Defaults: 64 virtual nodes per group on the ring.  [config] may
    tune each group's {!Rex_core.Config.t} but must keep the replica
    list it is given. *)

val engine : t -> Sim.Engine.t
val net : t -> Sim.Net.t
val rpc : t -> Sim.Rpc.t
val map : t -> Shard_map.t
val n_groups : t -> int
val cluster : t -> int -> Rex_core.Cluster.t
val clusters : t -> Rex_core.Cluster.t array
val client_node : t -> int

val start : t -> unit
val run : ?until:float -> t -> unit
val run_for : t -> float -> unit

val await_primaries : ?limit:float -> t -> unit
(** Run until every group has a primary (raises [Failure] after [limit]
    virtual seconds, default 30). *)

val router : t -> Router.t
(** The fleet's routing client, homed on {!client_node} (created on
    first use, then shared). *)

val primary : t -> int -> Rex_core.Server.t option

val crash_primary : t -> int -> int option
(** Crash group [g]'s current primary; returns the node id killed. *)

val restart : t -> int -> unit
(** Restart a crashed replica node (its group is inferred). *)

val replies : t -> int -> int
(** Committed replies sent by group [g] so far (monotone across
    crash/restart). *)

val check_no_divergence : t -> unit

val digests : t -> int -> string list
(** App digests of group [g]'s live replicas. *)

val converged : t -> bool
(** Every group's live replicas agree on their digest. *)

(** {1 Live topology}

    All four operations run the system {e under traffic}: they pump the
    simulation from driver context (like {!Rex_core.Cluster.restart})
    while client fibers keep issuing requests.  Counters under
    subsystem ["shard"]: [migrations], [migrated_keys],
    [group_reconfigs], [rolling_upgrades], a [migration_duration]
    histogram and a [fleet_epoch] gauge. *)

val active_groups : t -> int list
(** Groups in the current map ({!n_groups} counts every group ever
    created, including merged-away redirect servers). *)

val migrate : ?limit:float -> t -> Shard_map.t -> unit
(** Drive the fleet to a strictly newer-epoch map: SHARD PREPARE on
    every losing group (freeze + dump), INSTALL on every gaining group
    (import + cutover), COMMIT on the rest — all as ordinary replicated
    writes, idempotent and retried across failovers until [limit]
    virtual seconds (default 60).  Raises [Failure] on deadline. *)

val split : ?limit:float -> t -> int
(** Live split: create a new replica group on fresh engine nodes, then
    {!migrate} to the map with that group added (it takes ~1/(N+1) of
    the key space).  Returns the new group id. *)

val merge : ?limit:float -> t -> int -> unit
(** Live merge: {!migrate} to the map with group [g] removed; its keys
    spread across the survivors.  The victim's cluster stays up as a
    redirect server for stale routers. *)

val reconfig_group : ?limit:float -> t -> int -> int
(** Replace one (preferably non-primary) replica of group [g] through
    the group's replicated log; returns the new node id and updates the
    fleet router's view of the group. *)

val rolling_upgrade : ?pause:float -> t -> unit
(** {!Rex_core.Cluster.rolling_restart} over every active group. *)
