(* Structure-of-arrays binary heap: slot [i] is (prio.(i), seq.(i),
   value.(i)).  Priorities sit unboxed in a float array, so neither [add]
   nor the pop path allocates; sifting moves a hole instead of swapping
   whole entries.

   Vacated value slots are overwritten with [empty ()] so the heap never
   keeps a popped value alive.  [empty ()] is an immediate, so the value
   array is never created as a flat float array and storing it is always
   safe, whatever ['a] is. *)

type 'a t = {
  mutable prio : Float.Array.t;
  mutable seq : int array;
  mutable value : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let[@inline] empty () : 'a = Obj.magic 0

let create () =
  { prio = Float.Array.create 0; seq = [||]; value = [||]; size = 0; next_seq = 0 }

let is_empty q = q.size = 0
let length q = q.size

let grow q =
  let cap = max 16 (2 * Array.length q.seq) in
  let prio = Float.Array.create cap in
  Float.Array.blit q.prio 0 prio 0 q.size;
  let seq = Array.make cap 0 in
  Array.blit q.seq 0 seq 0 q.size;
  let value = Array.make cap (empty ()) in
  Array.blit q.value 0 value 0 q.size;
  q.prio <- prio;
  q.seq <- seq;
  q.value <- value

(* The new entry has the largest seq in the heap, so among equal
   priorities it never moves above a parent: the (priority, seq) order
   reduces to a strict priority comparison on the way up. *)
let add q ~priority v =
  if q.size = Array.length q.seq then grow q;
  let s = q.next_seq in
  q.next_seq <- s + 1;
  let i = ref q.size in
  q.size <- q.size + 1;
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    if priority < Float.Array.unsafe_get q.prio parent then begin
      Float.Array.unsafe_set q.prio !i (Float.Array.unsafe_get q.prio parent);
      Array.unsafe_set q.seq !i (Array.unsafe_get q.seq parent);
      Array.unsafe_set q.value !i (Array.unsafe_get q.value parent);
      i := parent
    end
    else moving := false
  done;
  Float.Array.unsafe_set q.prio !i priority;
  Array.unsafe_set q.seq !i s;
  Array.unsafe_set q.value !i v

let[@inline] less q i j =
  let pi = Float.Array.unsafe_get q.prio i and pj = Float.Array.unsafe_get q.prio j in
  pi < pj || (pi = pj && Array.unsafe_get q.seq i < Array.unsafe_get q.seq j)

let[@inline] min_priority q =
  if q.size = 0 then invalid_arg "Pqueue.min_priority: empty";
  Float.Array.unsafe_get q.prio 0

(* Pop the root: the last entry leaves its slot and sifts down from the
   root's hole. *)
let pop_value q =
  if q.size = 0 then invalid_arg "Pqueue.pop_value: empty";
  let top = Array.unsafe_get q.value 0 in
  let n = q.size - 1 in
  q.size <- n;
  let lp = Float.Array.unsafe_get q.prio n
  and ls = Array.unsafe_get q.seq n
  and lv = Array.unsafe_get q.value n in
  Array.unsafe_set q.value n (empty ());
  if n > 0 then begin
    let i = ref 0 in
    let moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= n then moving := false
      else begin
        let c = if l + 1 < n && less q (l + 1) l then l + 1 else l in
        let cp = Float.Array.unsafe_get q.prio c in
        if cp < lp || (cp = lp && Array.unsafe_get q.seq c < ls) then begin
          Float.Array.unsafe_set q.prio !i cp;
          Array.unsafe_set q.seq !i (Array.unsafe_get q.seq c);
          Array.unsafe_set q.value !i (Array.unsafe_get q.value c);
          i := c
        end
        else moving := false
      end
    done;
    Float.Array.unsafe_set q.prio !i lp;
    Array.unsafe_set q.seq !i ls;
    Array.unsafe_set q.value !i lv
  end;
  top
