(** Deterministic splittable pseudo-random numbers (SplitMix64).

    Every source of scheduling nondeterminism in the simulator draws from
    one of these generators, so an entire cluster run is a pure function of
    its seed — which is what lets the test suite record a trace under seed
    [a] and replay it under seed [b] to check the determinism property. *)

type t

val create : int -> t
val split : t -> t
(** An independent generator; the parent advances.

    [split] is also the {e only} supported way to hand randomness across
    OCaml domains: the state advance is a plain mutable update, so a
    generator must never be drawn from two domains.  Split on the owning
    domain, hand the child over, never share the parent. *)

val pin : t -> unit
(** Pin the generator to the calling domain: any later draw from another
    domain raises [Invalid_argument].  Engine-scoped root generators are
    pinned at creation; fiber-local splits stay unpinned (a fiber may
    migrate between the domains of a [lib/par] pool, which is safe —
    accesses stay sequential). *)

val bits64 : t -> int64
val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val pick : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed, for network latency tails. *)
