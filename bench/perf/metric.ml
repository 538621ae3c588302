(* A named measurement with its unit.  [Virtual] metrics come from the
   simulator's clock and its counters, so they repeat exactly at a given
   seed; [Wall] metrics come from the host (wall clock, GC) and vary from
   run to run. *)

type kind = Virtual | Wall
type better = Lower | Higher

type t = { name : string; unit_ : string; better : better; kind : kind; value : float }

let v ?(better = Lower) ?(kind = Virtual) name unit_ value =
  { name; unit_; better; kind; value }

let better_name = function Lower -> "lower" | Higher -> "higher"
let better_of_name = function "higher" -> Higher | _ -> Lower
let kind_name = function Virtual -> "virtual" | Wall -> "wall"
let kind_of_name = function "wall" -> Wall | _ -> Virtual

(* Exact percentile of a sorted array: the smallest sample with at least
   a share [q] of the samples at or below it. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)))

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let median l =
  let a = sorted_of_list l in
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Metrics of repeated phases: each name once, in first-seen order, with
   the median of its values. *)
let combine (l : t list) =
  let values = Hashtbl.create 64 in
  List.iter
    (fun m ->
      Hashtbl.replace values m.name
        (m.value :: Option.value (Hashtbl.find_opt values m.name) ~default:[]))
    l;
  List.filter_map
    (fun m ->
      Option.map
        (fun vs ->
          Hashtbl.remove values m.name;
          { m with value = median vs })
        (Hashtbl.find_opt values m.name))
    l

(* Quartiles as Python's statistics.quantiles(values, n=4) gives them
   (the default "exclusive" method), so that spreads read the same as
   the tooling that checks them. *)
let quartiles l =
  let a = sorted_of_list l in
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q j =
      let m = float (n + 1) *. float j /. 4. in
      let k = int_of_float (Float.floor m) in
      let k = max 1 (min (n - 1) k) in
      let frac = m -. float k in
      a.(k - 1) +. ((a.(k) -. a.(k - 1)) *. frac)
    in
    (q 1, q 2, q 3)
