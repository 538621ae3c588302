(** Request-mix generators: one per application in the paper's evaluation
    (§6.3), producing the request strings the [Apps] handlers parse.  All
    generators are deterministic functions of the supplied {!Sim.Rng.t}. *)

type gen = Sim.Rng.t -> string

val thumbnail : n_images:int -> gen
(** "THUMB <img> <dim>": compute and cache a thumbnail. *)

val lock_server : n_files:int -> gen
(** 90% lease renewals, 10% create/update with 100 B – 5 KB payloads
    (paper §6.3, modeled on the Chubby workload). *)

val filesystem : n_files:int -> gen
(** 16 KB reads/writes over 64 × 128 MB files, read:write = 1:4. *)

val kv : ?n_keys:int -> ?read_ratio:float -> ?theta:float -> unit -> gen
(** "SET <key> <value>" / "GET <key>" over 16 B keys and 100 B values
    (defaults: 1 M keys, 50% reads, mild zipf skew). *)

val kv_keyed :
  ?n_keys:int -> ?read_ratio:float -> ?theta:float -> unit ->
  Sim.Rng.t -> string * string
(** Like {!kv} but returns [(key, request)], so a sharded router can
    place the request without parsing it.  [theta = 0.] gives uniform
    keys, [theta ~ 0.99] the classic YCSB hotspot. *)

(** {1 YCSB-style core workloads}

    The standard cloud-serving mixes, over the paper's 16 B keys and
    100 B values, for the key/value applications. *)

type ycsb = A | B | C | D | E | F

val ycsb_name : ycsb -> string
val ycsb : ?n_keys:int -> ycsb -> gen
(** A: 50/50 read/update; B: 95/5; C: read-only; D: read-latest (inserts +
    reads skewed to recent keys); E: short scans (rendered as multi-GETs);
    F: read-modify-write. *)
