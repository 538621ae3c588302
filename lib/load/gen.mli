(** Deterministic open-loop event generation: the pure core of the load
    engine.

    A generator holds each session's one pending arrival, filed under the
    tick it fires in, plus one seeded rng.  Every random draw
    (interarrival gap, zipf key, read/write coin) happens in firing order
    as events are pulled — an order fixed by (seed, profile, sessions)
    alone — so the generated arrival/key trace is byte-identical however
    the pulls are sliced and on whichever backend the pulling fiber
    runs.  The runner ({!Engine}) paces pulls
    against the backend clock; tests pull without pacing. *)

type ev = {
  at : float;  (** arrival time, relative to the run start *)
  session : int;
  seq : int;  (** per-session arrival counter *)
  key : int;  (** zipf rank in [0, keys) *)
  read : bool;
}

type t

val tick : float
(** The schedule's granularity, 1 ms: an arrival fires at the first pull
    at or after its tick, and the runner never sleeps less.  Ordering
    contract: arrivals fire tick by tick, and within a tick in (due time,
    filing order).  An arrival fires in the tick it is due in, with two
    exceptions: one filed for a tick already pulled fires in the next
    tick, and one due exactly on a 256-tick boundary and filed 256 or
    more ticks ahead fires one tick late (the order of the timer wheel
    this replaced, kept so schedules did not change). *)

val create :
  sessions:int ->
  duration:float ->
  profile:Arrivals.profile ->
  keys:int ->
  theta:float ->
  read_ratio:float ->
  seed:int ->
  unit ->
  t
(** Seeds every session's first arrival (O(sessions)); sessions whose
    first gap lands past [duration] never arrive.  No arrival is generated
    after [duration]. *)

val pull : t -> until:float -> (ev -> unit) -> int
(** Generate and deliver every arrival due at or before relative time
    [until], in firing order; each delivery files that session's next
    arrival.  Returns how many were delivered.  O(1) per arrival at a few
    arrivals per tick, and no allocation but the [ev] itself. *)

val next_due : t -> float option
(** Relative time of the earliest pending arrival; [None] once the
    horizon is exhausted. *)

val generated : t -> int
val finished : t -> bool
