(** Distributed lock service à la Chubby (paper §6.3, Fig. 7b): 90% of
    requests renew leases on locked files, the rest create or update
    locked files of 100 B – 5 KB.

    Requests: ["RENEW <path>"], ["CREATE <path> <size>"],
    ["UPDATE <path> <size>"], ["READ <path>"].
    Synchronization: [ReadWriteLock] (Table 1) — a namespace
    readers-writer lock (creates take it in write mode) over per-slice
    readers-writer locks. *)

val factory : ?slices:int -> ?op_cost:float -> unit -> Rex_core.App.factory
(** Defaults: 128 slices, 8 µs per op, 1 ns per payload byte. *)
