(** Hierarchical timing wheel: the event queue behind the open-loop load
    engine.

    A binary heap ([Sim.Pqueue]) costs O(log n) per operation with a poor
    constant at fleet sizes of 10^5–10^6 timers; the wheel hashes each
    timer into one of [levels] × [slots] buckets by its due tick, for
    amortized O(1) insert and O(1) per-tick dispatch — per-event cost stays
    flat as the fleet grows (the bechamel series in EXPERIMENTS.md §14
    records both).

    Time is bucketed at [tick] resolution.  Level 0 holds timers due within
    [slots] ticks at exact-tick precision; level [l] covers [slots^(l+1)]
    ticks and cascades its buckets down as the cursor crosses group
    boundaries.  Timers beyond the top level's span are clamped into the
    top level and re-cascade until their true due tick is in range.

    Ordering contract: {!pop_until} delivers timers in due-tick order, and
    within one tick bucket in (due time, insertion seq) order — so two
    timers more than one [tick] apart always fire in time order, and ties
    are deterministic.  Timers added {e during} a pop (e.g. a session
    re-arming its next arrival from inside the callback) land in strictly
    later ticks of the same pop when due within its window. *)

type 'a t

val create : ?tick:float -> ?slots:int -> ?levels:int -> now:float -> unit -> 'a t
(** Defaults: [tick] 1e-3 s, [slots] 256, [levels] 4 — a ~50-day range at
    millisecond resolution.  [now] anchors tick 0.
    @raise Invalid_argument on [tick <= 0], [slots < 2] or [levels < 1]. *)

val add : 'a t -> at:float -> 'a -> unit
(** Schedule a timer at absolute time [at]; past times fire on the next
    tick. *)

val length : 'a t -> int

val next_due : 'a t -> float option
(** Due time of the earliest pending timer ([None] when empty), the
    minimum over every level, so it is safe to sleep until it. *)

val pop_until : 'a t -> now:float -> (float -> 'a -> unit) -> int
(** Fire every timer due at or before [now] (per the ordering contract
    above), returning how many fired.  The callback may {!add}. *)
