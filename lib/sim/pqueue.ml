(* Binary heap over three unboxed arrays; the values live apart, by
   slot.  Heap position [i] holds (prio.(i), seq.(i), slot.(i)), and its
   value is value.(slot.(i)).  Sifting moves only floats and ints, so it
   never runs the write barrier: a value is stored once, into its slot,
   on [add], and the slot is cleared once on [pop_value] or [remove], so
   the heap never keeps a popped value alive.  [pos] is the inverse of
   [slot] over live positions, kept by the same int writes, so [remove]
   finds an entry by its slot in O(1).

   Free slots need no list of their own.  Positions [size, fresh) of
   [slot] hold the slots that are free: [pop_value] and [remove] park the
   freed slot at the position they vacate, and [add] takes the slot
   parked at the position it fills.  Slots from [fresh] on have never
   been used.

   The sifts are written out rather than passed the moving entry's
   priority: a helper taking that float would box it on every call
   without flambda.  [pop_value] and [remove] share [take_at], which is
   given a position, not a priority.

   [empty ()] is an immediate, so the value array is never created as a
   flat float array and storing any ['a] into it is safe. *)

type 'a t = {
  mutable prio : Float.Array.t;
  mutable seq : int array;
  mutable slot : int array;
  mutable pos : int array;
  mutable value : 'a array;
  mutable size : int;
  mutable fresh : int;
  mutable next_seq : int;
}

type handle = { h_slot : int; h_seq : int }

let[@inline] empty () : 'a = Obj.magic 0

let create () =
  {
    prio = Float.Array.create 0;
    seq = [||];
    slot = [||];
    pos = [||];
    value = [||];
    size = 0;
    fresh = 0;
    next_seq = 0;
  }

let is_empty q = q.size = 0
let length q = q.size

(* Only called when full, so [fresh = size] and every slot is live. *)
let grow q =
  let cap = max 16 (2 * Array.length q.seq) in
  let prio = Float.Array.create cap in
  Float.Array.blit q.prio 0 prio 0 q.size;
  let extend a = Array.append a (Array.make (cap - q.size) 0) in
  let value = Array.make cap (empty ()) in
  Array.blit q.value 0 value 0 q.size;
  q.prio <- prio;
  q.seq <- extend q.seq;
  q.slot <- extend q.slot;
  q.pos <- extend q.pos;
  q.value <- value

(* The new entry has the largest seq in the heap, so among equal
   priorities it never moves above a parent: the (priority, seq) order
   reduces to a strict priority comparison on the way up.  Returns the
   entry's slot; its seq is [q.next_seq - 1]. *)
let push q ~priority v =
  if q.size = Array.length q.seq then grow q;
  let s = q.next_seq in
  q.next_seq <- s + 1;
  let n = q.size in
  let sl =
    if n < q.fresh then Array.unsafe_get q.slot n
    else begin
      q.fresh <- n + 1;
      n
    end
  in
  Array.unsafe_set q.value sl v;
  q.size <- n + 1;
  let i = ref n in
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    if priority < Float.Array.unsafe_get q.prio parent then begin
      Float.Array.unsafe_set q.prio !i (Float.Array.unsafe_get q.prio parent);
      Array.unsafe_set q.seq !i (Array.unsafe_get q.seq parent);
      let ps = Array.unsafe_get q.slot parent in
      Array.unsafe_set q.slot !i ps;
      Array.unsafe_set q.pos ps !i;
      i := parent
    end
    else moving := false
  done;
  Float.Array.unsafe_set q.prio !i priority;
  Array.unsafe_set q.seq !i s;
  Array.unsafe_set q.slot !i sl;
  Array.unsafe_set q.pos sl !i;
  sl

let add q ~priority v = ignore (push q ~priority v)

let add_handle q ~priority v =
  let sl = push q ~priority v in
  { h_slot = sl; h_seq = q.next_seq - 1 }

let[@inline] less q i j =
  let pi = Float.Array.unsafe_get q.prio i and pj = Float.Array.unsafe_get q.prio j in
  pi < pj || (pi = pj && Array.unsafe_get q.seq i < Array.unsafe_get q.seq j)

let[@inline] min_priority q =
  if q.size = 0 then invalid_arg "Pqueue.min_priority: empty";
  Float.Array.unsafe_get q.prio 0

(* Take the entry at position [p] out: the last entry leaves its
   position and fills the hole, sifting up if it beats the hole's parent
   and down otherwise; the freed slot is parked at the vacated position.
   Returns the freed slot. *)
let take_at q p =
  let top = Array.unsafe_get q.slot p in
  let n = q.size - 1 in
  q.size <- n;
  if p < n then begin
    let last_p = Float.Array.unsafe_get q.prio n
    and last_s = Array.unsafe_get q.seq n
    and last_slot = Array.unsafe_get q.slot n in
    let i = ref p in
    let moving = ref true in
    while !moving && !i > 0 do
      let parent = (!i - 1) / 2 in
      let pp = Float.Array.unsafe_get q.prio parent in
      if last_p < pp || (last_p = pp && last_s < Array.unsafe_get q.seq parent)
      then begin
        Float.Array.unsafe_set q.prio !i pp;
        Array.unsafe_set q.seq !i (Array.unsafe_get q.seq parent);
        let ps = Array.unsafe_get q.slot parent in
        Array.unsafe_set q.slot !i ps;
        Array.unsafe_set q.pos ps !i;
        i := parent
      end
      else moving := false
    done;
    (* an entry that moved up cannot also need to move down *)
    moving := !i = p;
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= n then moving := false
      else begin
        let c = if l + 1 < n && less q (l + 1) l then l + 1 else l in
        let cp = Float.Array.unsafe_get q.prio c in
        if cp < last_p || (cp = last_p && Array.unsafe_get q.seq c < last_s) then begin
          Float.Array.unsafe_set q.prio !i cp;
          Array.unsafe_set q.seq !i (Array.unsafe_get q.seq c);
          let cs = Array.unsafe_get q.slot c in
          Array.unsafe_set q.slot !i cs;
          Array.unsafe_set q.pos cs !i;
          i := c
        end
        else moving := false
      end
    done;
    Float.Array.unsafe_set q.prio !i last_p;
    Array.unsafe_set q.seq !i last_s;
    Array.unsafe_set q.slot !i last_slot;
    Array.unsafe_set q.pos last_slot !i
  end;
  Array.unsafe_set q.slot n top;
  top

(* At position 0 [take_at]'s upward pass never runs. *)
let pop_value q =
  if q.size = 0 then invalid_arg "Pqueue.pop_value: empty";
  let top = Array.unsafe_get q.slot 0 in
  let v = Array.unsafe_get q.value top in
  Array.unsafe_set q.value top (empty ());
  ignore (take_at q 0);
  v

(* A handle names a live entry only while its slot sits at a live
   position with the seq it was given: once popped or removed the slot's
   position is at or past [size], and once reused its seq is newer. *)
let remove q h =
  let sl = h.h_slot in
  if sl < q.fresh then begin
    let p = Array.unsafe_get q.pos sl in
    if p < q.size && Array.unsafe_get q.slot p = sl
       && Array.unsafe_get q.seq p = h.h_seq
    then begin
      ignore (take_at q p);
      Array.unsafe_set q.value sl (empty ())
    end
  end
