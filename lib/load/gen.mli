(** Deterministic open-loop event generation: the pure core of the load
    engine.

    A generator is a timing wheel of per-session arrival timers plus one
    seeded rng.  Every random draw (interarrival gap, zipf key, read/write
    coin) happens in wheel pop order as events are pulled — an order fixed
    by (seed, profile, sessions) alone — so the generated arrival/key
    trace is byte-identical however the pulls are sliced and on whichever
    backend the pulling fiber runs.  The runner ({!Engine}) paces pulls
    against the backend clock; tests pull without pacing. *)

type ev = {
  at : float;  (** arrival time, relative to the run start *)
  session : int;
  seq : int;  (** per-session arrival counter *)
  key : int;  (** zipf rank in [0, keys) *)
  read : bool;
}

type t

val wheel_tick : float
(** The arrival wheel's granularity, 1 ms: an arrival fires at the first
    pull at or after its time, and the runner never sleeps less. *)

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
    [until], in wheel order; each delivery re-arms that session's next
    arrival.  Returns how many were delivered. *)

val next_due : t -> float option
(** Relative time of the next pending arrival; [None] once the horizon is
    exhausted (see {!Wheel.next_due}). *)

val generated : t -> int
val finished : t -> bool
