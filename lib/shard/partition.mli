(** Key-partitioned application adapter with live migration.

    Wraps any {!Rex_core.App.factory} for use inside one shard of a
    fleet.  Static behaviour: requests whose key does not route to this
    group (by the group's current {!Shard_map}) are rejected with
    ["ERR:wrong-shard <spec>"] — the responder's current map spec rides
    along so a stale router can refresh in one hop — and counted on the
    ["shard"/"misrouted"] counter.

    Live behaviour: the wrapper hosts a replicated control grammar, sent
    through the ordinary write path so every replica of the group
    transitions identically and the state survives failover:

    - ["SHARD PREPARE <spec>"] — begin migrating to the (strictly
      newer-epoch) target map.  Keys owned here but not under the target
      {e freeze}: reads and writes answer ["ERR:migrating <spec>"] until
      cutover, so no key is ever writable in two groups at once.
      Replies ["OK <entries>"] with the frozen keys' current values.
    - ["SHARD INSTALL <spec> <entries>"] — import the entries owned by
      this group under the target map, then cut over to it.
    - ["SHARD COMMIT <spec>"] — cut over without importing (the losing
      side's retirement).  All three are idempotent: a spec whose epoch
      is not newer than the current map answers ["OK"] unchanged.
    - ["SHARD EPOCH"] — current spec probe (also served as a query).

    The wrapper's map/target state rides in the checkpoint stream and in
    the digest, so crash/rejoin, demotion rollback and divergence
    detection all see the shard view move in lockstep with base state. *)

val default_key_of : string -> string option
(** Second whitespace-separated token — the key position of every
    request grammar in [lib/apps]. *)

val wrong_shard : string
(** Rejection prefix, ["ERR:wrong-shard"] (followed by the spec). *)

val migrating : string
(** Freeze rejection prefix, ["ERR:migrating"] (followed by the spec). *)

val classify :
  string ->
  [ `Wrong_shard of Shard_map.t option
  | `Migrating of Shard_map.t option
  | `App ]
(** Sort a reply for routing purposes, decoding the attached spec when
    present.  [`App] means an ordinary application response. *)

val encode_entries : (string * string) list -> string
(** Hex-armoured key/value blob as carried by PREPARE replies and
    INSTALL requests (space-free, so request tokenizers stay happy). *)

val decode_entries : string -> (string * string) list option

val parse_prepare_reply : string -> (string * string) list option
(** Extract the migration entries from a ["OK <entries>"] PREPARE
    reply; [None] if the reply is not a successful PREPARE. *)

val factory :
  map:Shard_map.t ->
  group:int ->
  Rex_core.App.factory ->
  Rex_core.App.factory
(** [map] is the group's {e initial} map; SHARD control requests move it.
    A request's key is {!default_key_of}; a migration exports with
    ["GET k"] and imports with ["SET k v"], the [lib/apps] grammar. *)
