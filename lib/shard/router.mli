(** Routing client for a sharded Rex fleet.

    Hashes keys through a {!Shard_map} to a replica group, tracks a
    believed leader per group (refreshed from [Not_leader] redirect
    hints), retries with exponential backoff across timeouts and
    failovers, and fans multi-key batches out to their groups
    concurrently with partial-failure reporting.  Concurrent calls on
    one router are safe: see {!Rex_core.Client.Guess}.

    Everything is instrumented under subsystem ["shard"]: total requests
    and RPC hops, per-group routed/redirect/retry/failure counters, a
    per-group request-latency histogram, and an [imbalance_milli] gauge
    (1000 x max/mean of per-group routed requests). *)

type t

val create :
  Sim.Net.t ->
  Sim.Rpc.t ->
  me:int ->
  map:Shard_map.t ->
  groups:(int * int list) list ->
  t
(** [groups] lists each group's replica node ids; every group in [map]
    must be present. *)

val map : t -> Shard_map.t
val set_map : t -> Shard_map.t -> unit
(** Install a newer epoch (the groups must already be known). *)

val add_group : t -> group:int -> nodes:int list -> unit
(** Teach the router a (new) group's replica nodes — required before a
    map naming that group can be installed or adopted from a redirect.
    Idempotent: an existing group's nodes are replaced, keeping the
    believed leader if it is still among them. *)

val set_group_nodes : t -> group:int -> nodes:int list -> unit
(** Replace an existing group's replica nodes (after a reconfiguration
    changed its membership).  The leader guess stays on the believed
    leader if it is still a member, else moves to the first node. *)

val group_of : t -> string -> int

val leader_hint : t -> group:int -> int
(** The node the router currently believes leads the group. *)

val call :
  ?retries:int -> ?timeout:float -> t -> key:string -> string -> string option
(** Route an update request by key.  Follows leader hints, sleeps with
    exponential backoff between attempts, and gives up after [retries]
    (default 8) per routing attempt — [None] inherits the client
    library's at-least-once caveat.  Shard redirects are obeyed across
    up to 10 routing attempts: a wrong-shard reply refreshes the map
    from the attached spec (counted on [shard/router_remaps]), a
    migrating reply backs off until the cutover lands (counted on
    [shard/migration_waits]).  Each re-route re-issues with a fresh
    session identity, which is safe because the shard layer rejected
    the original before it touched app state. *)

val call_group :
  ?retries:int -> ?timeout:float -> t -> group:int -> string -> string option

val query :
  ?retries:int -> ?timeout:float -> t -> key:string -> string -> string option
(** Read-only request on the key's group.  Follows the same leader-hint /
    rotate-with-backoff discovery loop as {!call} (default 8 retries);
    with the lease/quorum fast path any live replica can answer, so a
    redirect only moves the guess. *)

val query_group :
  ?retries:int -> ?timeout:float -> t -> group:int -> string -> string option

(** {1 Scatter-gather} *)

type outcome = Reply of string | Failed of { group : int }

type multi = {
  outcomes : (string * outcome) array;  (** input order: (key, outcome) *)
  failed_groups : int list;  (** sorted, distinct *)
}

val multi_call :
  ?retries:int -> ?timeout:float -> t -> (string * string) list -> multi
(** Fan a [(key, request)] batch out to its groups concurrently (one
    fiber per group, FIFO within a group); must run inside a fiber.
    Keys whose group exhausted retries come back [Failed], the rest
    [Reply] — one slow or dead shard does not sink the batch. *)

val multi_ok : multi -> bool

(** {1 Introspection} *)

type stats = {
  requests : int;
  hops : int;  (** individual RPC attempts of writes, >= requests *)
  redirects : int;
  retries : int;
  failures : int;
}

val stats : t -> stats

val routed_ok : t -> group:int -> int
(** Successfully routed requests for one group. *)

val imbalance : t -> float
(** max/mean of per-group routed requests (1.0 = perfectly even). *)
