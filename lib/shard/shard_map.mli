(** Consistent-hash shard map: keys to replica groups.

    A ring of [vnodes] virtual points per group (S-SMR-style state
    partitioning — Marandi et al., "Rethinking State-Machine Replication
    for Parallelism").  Virtual nodes keep per-group key shares balanced;
    consistent hashing makes membership changes minimal: growing from N
    to N+1 groups remaps ~1/(N+1) of the keys, all of them {e to} the new
    group, and removing a group remaps only that group's keys.

    Maps are immutable; every membership change returns a new map with a
    bumped {!epoch}, so routers and fleets can compare versions. *)

type t

val create : ?vnodes:int -> groups:int list -> unit -> t
(** Default 64 virtual nodes per group. *)

val epoch : t -> int
(** 0 at creation, +1 per {!add_group}/{!remove_group}. *)

val vnodes : t -> int
val groups : t -> int list
val n_groups : t -> int

val ring_size : t -> int
(** [n_groups * vnodes] — every group gets its full vnode complement. *)

val contains : t -> int -> bool

val group_of : t -> string -> int
(** Deterministic: depends only on the key bytes and the membership. *)

val add_group : t -> int -> t
val remove_group : t -> int -> t

val encode_spec : t -> string
(** Compact wire form carrying epoch, vnode count and group set — enough
    to reconstruct the map on the other side.  Attached to shard
    redirect replies so stale routers refresh without a directory
    service. *)

val max_ring : int
(** The most ring points (vnodes × groups) {!decode_spec} accepts. *)

val decode_spec : string -> t option
(** Inverse of {!encode_spec}; [None] on malformed input and on a ring
    of more than {!max_ring} points. *)

val shares : t -> string list -> (int * int) list
(** Keys-per-group histogram of a key sample, for balance checks. *)

val hash : string -> int
(** The stable (FNV-1a 64) key hash the ring is built on. *)
