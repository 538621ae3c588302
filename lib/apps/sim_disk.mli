(** Virtual-time disk with native command queuing.

    Stands in for the paper's RAID-5 SCSI array (DESIGN.md §2): a random
    access pays a seek, but up to [queue_depth] seeks proceed in parallel
    (the "batched requests allow the underlying disk driver to optimize
    disk accesses" effect of §6.3); transfers then share a serial
    bandwidth stage.

    The disk is {e below} the replication boundary: it contributes only
    virtual time, never state, so its internal synchronization is native
    (unrecorded) and may differ across replicas. *)

type t

val create : ?queue_depth:int -> Par.Backend.t -> t
(** A 4.5 ms seek and 200 MB/s.  Default: depth 5. *)

val io : t -> bytes_len:int -> unit
(** Block the calling fiber for one random-access I/O of the given size. *)

val ios_completed : t -> int
