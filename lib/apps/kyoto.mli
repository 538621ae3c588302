(** Kyoto Cabinet HashDB-style store (paper §6.3, Fig. 7d): "key space is
    divided into 1024 slices with each slice protected by a readers-writer
    lock", plus one mutex protecting the metadata (record count, free
    space), touched on every update — the serial fraction that caps its
    scaling around 8 cores.

    Requests: ["SET <key> <value>"], ["GET <key>"], ["DEL <key>"].
    Synchronization: [Lock], [Cond], [ReadWriteLock] (Table 1). *)

val factory : ?slices:int -> ?op_cost:float -> unit -> Rex_core.App.factory
(** Defaults: 1024 slices, 7 µs per op, 1.5 µs under the metadata lock. *)
