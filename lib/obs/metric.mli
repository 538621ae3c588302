(** Scalar metrics: monotone counters and last-value gauges.

    These are single atomic cells — cheap enough that hot paths (one
    counter bump per recorded sync event) stay hot on the single-domain
    simulator, and coherent when bumped concurrently from the real
    OCaml 5 domains of the [lib/par] backend.  Identity and naming live
    in {!Registry}; a handle obtained once can be bumped forever without
    a lookup. *)

type counter
(** Monotone integer count of discrete occurrences. *)

val counter : unit -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

type gauge
(** Last-observed float value (queue depth, ratio, watermark). *)

val gauge : unit -> gauge
val set : gauge -> float -> unit
val set_max : gauge -> float -> unit
(** Keep the maximum of the current and the new value (high-watermark). *)

val get : gauge -> float
