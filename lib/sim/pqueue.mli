(** Binary min-heap keyed by [(priority : float, seq : int)].

    The sequence number makes the pop order total and deterministic: two
    entries with equal priority pop in insertion order.  This is the event
    queue of the discrete-event {!Engine}, so the [(priority, seq)] order
    is the simulator's determinism contract.

    Adding and popping allocate nothing beyond occasional capacity
    doubling, and a popped or removed value is not retained by the
    queue. *)

type 'a t

type handle
(** Names one added entry, for {!remove}. *)

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int

val add : 'a t -> priority:float -> 'a -> unit
(** Insertion order among equal priorities is remembered. *)

val add_handle : 'a t -> priority:float -> 'a -> handle
(** {!add}, returning a handle to the new entry. *)

val remove : 'a t -> handle -> unit
(** Remove the entry the handle names, in O(log n).  A no-op once that
    entry has been popped or removed, even if its storage has since been
    reused by a newer entry. *)

val min_priority : 'a t -> float
(** Priority of the minimum entry.
    @raise Invalid_argument if the queue is empty. *)

val pop_value : 'a t -> 'a
(** Remove the minimum entry and return its value; read its priority
    first with {!min_priority} if needed.
    @raise Invalid_argument if the queue is empty. *)
