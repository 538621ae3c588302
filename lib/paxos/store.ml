(* The log is dense: Paxos numbers instances contiguously from 1, so
   accepted and committed entries live in arrays indexed by instance
   minus [base], grown by doubling.  [truncate_below] moves the kept
   suffix to index 0 and raises [base]; a write below [base] (a late
   commit of a truncated instance) shifts the arrays up to cover it. *)

type t = {
  mutable promised_b : Ballot.t;
  mutable base : int;  (* the instance at index 0 *)
  mutable accepted_a : (Ballot.t * string) option array;
  mutable committed_a : string option array;
  mutable top : int;
      (* one past the highest index that has ever held an entry; every
         index from [top] on is [None] *)
  mutable upto : int;
  mutable max_committed_i : int;
      (* commits can land out of order under pipelining; a proposer must
         never reuse an instance above the contiguous prefix *)
  mutable group : int list option;
      (* latest committed replica-group membership, if a reconfiguration
         ever committed; survives restart like promises do *)
}

let create () =
  {
    promised_b = Ballot.zero;
    base = 1;
    accepted_a = Array.make 64 None;
    committed_a = Array.make 64 None;
    top = 0;
    upto = 0;
    max_committed_i = 0;
    group = None;
  }

let group t = t.group
let set_group t peers = t.group <- Some peers

let promised t = t.promised_b

let set_promised t b =
  if Ballot.compare b t.promised_b > 0 then t.promised_b <- b

(* The index of instance [i], making room for it. *)
let slot t i =
  if i < t.base then begin
    let shift = t.base - i in
    let move a =
      let b = Array.make (Array.length a + shift) None in
      Array.blit a 0 b shift t.top;
      b
    in
    t.accepted_a <- move t.accepted_a;
    t.committed_a <- move t.committed_a;
    t.base <- i;
    t.top <- t.top + shift
  end;
  let k = i - t.base in
  let cap = Array.length t.committed_a in
  if k >= cap then begin
    let grow a =
      let b = Array.make (max (2 * cap) (k + 1)) None in
      Array.blit a 0 b 0 t.top;
      b
    in
    t.accepted_a <- grow t.accepted_a;
    t.committed_a <- grow t.committed_a
  end;
  if k >= t.top then t.top <- k + 1;
  k

let[@inline] get a t i =
  let k = i - t.base in
  if k < 0 || k >= t.top then None else Array.unsafe_get a k

let accepted t i = get t.accepted_a t i
let set_accepted t i b v =
  let k = slot t i in
  t.accepted_a.(k) <- Some (b, v)

let accepted_above t floor =
  let acc = ref [] in
  for k = t.top - 1 downto max 0 (floor + 1 - t.base) do
    match t.accepted_a.(k) with
    | Some (b, v) -> acc := (k + t.base, b, v) :: !acc
    | None -> ()
  done;
  !acc

let committed t i = get t.committed_a t i

let rec advance t =
  match committed t (t.upto + 1) with
  | Some _ ->
    t.upto <- t.upto + 1;
    advance t
  | None -> ()

let commit t i v =
  (match committed t i with
  | Some v' when v' <> v ->
    invalid_arg
      (Printf.sprintf "Paxos safety violation at instance %d (have %d, got %d)"
         i (Hashtbl.hash v') (Hashtbl.hash v))
  | Some _ | None -> ());
  let k = slot t i in
  t.committed_a.(k) <- Some v;
  if i > t.max_committed_i then t.max_committed_i <- i;
  advance t

let committed_upto t = t.upto
let max_committed t = t.max_committed_i

let fast_forward t i =
  (* A checkpoint subsumes everything at or below its instance: treat the
     prefix as committed even though the values are gone. *)
  if i > t.upto then begin
    t.upto <- i;
    if i > t.max_committed_i then t.max_committed_i <- i;
    advance t
  end

let committed_range t ~from_i ~upto =
  let rec go i acc =
    if i < from_i then acc
    else
      match committed t i with
      | None -> go (i - 1) acc
      | Some v -> go (i - 1) ((i, v) :: acc)
  in
  go upto []

let truncate_below t floor =
  let drop = min t.top (floor - t.base) in
  if drop > 0 then begin
    let shift a =
      Array.blit a drop a 0 (t.top - drop);
      Array.fill a (t.top - drop) drop None
    in
    shift t.accepted_a;
    shift t.committed_a;
    t.base <- t.base + drop;
    t.top <- t.top - drop
  end
