(** Zipfian rank sampling (rejection-inversion-free, precomputed CDF) for
    skewed key popularity in the key/value workloads. *)

type t

val create : n:int -> theta:float -> t
(** Ranks [0 .. n-1]; [theta = 0] is uniform, [theta ~ 0.99] is the
    classic YCSB skew.  The O(n) CDF table is memoized per (n, theta)
    process-wide (mutex-guarded, immutable after publication), so
    instantiating a sampler per session is O(1) after the first — the
    million-session load engine depends on this. *)

val create_uncached : n:int -> theta:float -> t
(** Always rebuilds the table; the bechamel before/after baseline for the
    memoization, and an escape hatch if a caller ever mutates nothing but
    still wants isolation. *)

val n : t -> int

val pmf : t -> int -> float
(** Analytic probability of rank [i], from adjacent CDF entries; the
    reference distribution for the chi-square goodness-of-fit test. *)

val cdf : t -> int -> float
(** The CDF table's entry for rank [i]: the probability of a rank [<= i]. *)

val index_of : t -> float -> int
(** The first rank whose CDF value is [>= u], for [u] in [\[0, 1)]: a
    binary search bracketed by a guide table, O(1) expected. *)

val sample : t -> Sim.Rng.t -> int
(** [index_of t] of one uniform draw from [rng]. *)
