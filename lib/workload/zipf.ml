(* [guide.(j)] is the first index whose CDF value is >= j/n: a draw [u]
   in [j/n, (j+1)/n) lands in [guide.(j), guide.(j+1)], so the search
   covers a few entries instead of all n. *)
type t = { cdf : float array; guide : int array }

let create_uncached ~n ~theta =
  if n <= 0 then invalid_arg "Zipf.create";
  let weights = Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) theta) in
  let total = Array.fold_left ( +. ) 0. weights in
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  Array.iteri
    (fun i w ->
      acc := !acc +. (w /. total);
      cdf.(i) <- !acc)
    weights;
  cdf.(n - 1) <- 1.0;
  let guide = Array.make (n + 1) 0 in
  let i = ref 0 in
  for j = 0 to n do
    let u = float_of_int j /. float_of_int n in
    while cdf.(!i) < u do
      incr i
    done;
    guide.(j) <- !i
  done;
  { cdf; guide }

(* The tables are O(n) to build but immutable once built, and samplers
   are instantiated per client fiber / per load-engine generator — a
   million-session fleet must not pay O(keyspace) a million times.  The
   cache is keyed by the full (n, theta) parameterization and guarded by a
   stdlib mutex so domains-backend callers can share it; the arrays
   themselves are never written after publication. *)
let cache : (int * float, t) Hashtbl.t = Hashtbl.create 8
let cache_lock = Mutex.create ()
let max_cached = 64

let create ~n ~theta =
  if n <= 0 then invalid_arg "Zipf.create";
  let key = (n, theta) in
  Mutex.lock cache_lock;
  let t =
    match Hashtbl.find_opt cache key with
    | Some t -> t
    | None ->
      Mutex.unlock cache_lock;
      let t = create_uncached ~n ~theta in
      Mutex.lock cache_lock;
      (match Hashtbl.find_opt cache key with
      | Some t -> t (* lost the race; keep the published table *)
      | None ->
        if Hashtbl.length cache < max_cached then Hashtbl.add cache key t;
        t)
  in
  Mutex.unlock cache_lock;
  t

let n t = Array.length t.cdf

let pmf t i =
  if i < 0 || i >= Array.length t.cdf then invalid_arg "Zipf.pmf";
  if i = 0 then t.cdf.(0) else t.cdf.(i) -. t.cdf.(i - 1)

let cdf t i = t.cdf.(i)

(* The first index in [lo, hi] with cdf >= u. *)
let rec search cdf u lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if cdf.(mid) >= u then search cdf u lo mid else search cdf u (mid + 1) hi

(* Where float rounding puts [u] outside its guide bracket, the full
   search decides, so every [u] maps to the index the full search gives. *)
let index_of t u =
  let n = Array.length t.cdf in
  let j = int_of_float (u *. float_of_int n) in
  let j = if j < 0 then 0 else if j >= n then n - 1 else j in
  let lo = t.guide.(j) and hi = t.guide.(j + 1) in
  if (lo = 0 || t.cdf.(lo - 1) < u) && t.cdf.(hi) >= u then
    search t.cdf u lo hi
  else search t.cdf u 0 (n - 1)

let sample t rng = index_of t (Sim.Rng.float rng 1.0)
