(* Atomic cells so instruments stay coherent when bumped from several
   domains at once (the lib/par real-parallel backend); on the
   single-domain simulator an uncontended atomic costs within a few
   nanoseconds of the plain mutable field it replaces. *)

type counter = int Atomic.t

let counter () = Atomic.make 0
let incr m = Atomic.incr m
let add m n = ignore (Atomic.fetch_and_add m n)
let value m = Atomic.get m

type gauge = float Atomic.t

let gauge () = Atomic.make 0.
let set m v = Atomic.set m v

let rec set_max m v =
  let cur = Atomic.get m in
  if v > cur && not (Atomic.compare_and_set m cur v) then set_max m v

let get m = Atomic.get m
