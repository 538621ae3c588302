(* The host's speed, read from a fixed reference loop.

   Other tenants of a shared host slow this process for seconds to
   minutes, by up to 40%, without taking the CPU from it: the process's
   CPU time grows exactly as fast as its wall time, so the slowdown is
   contention for the core and its caches.  The benchmark times [work]
   right after each slice of simulation and divides the slice's wall
   time by it; a slowdown that hits both cancels.  Of the loops
   tried (pointer chasing over 128 KB, 4 MB and 64 MB, and this one)
   this one slows most nearly as the simulator does: over three sets of
   ten kv-reads runs on a 2-core Xeon host, whose raw speed spread
   6-18% per set, the corrected speed spread 1-2%.

   [work] uses the standard library only, so no change to lib/ can move
   its time. *)

let sink = ref 0

(* Typical OCaml mutator work: tuples, boxed floats and strings
   allocated, a small hash table updated, short arrays sorted. *)
let work () =
  let h = Hashtbl.create 64 and l = ref [] in
  for i = 1 to 1500 do
    l := (i, float i, string_of_int i) :: !l;
    Hashtbl.replace h (i land 255) !l;
    if i land 31 = 0 then begin
      let a = Array.of_list !l in
      Array.sort compare a;
      sink := !sink + Array.length a;
      l := []
    end
  done

(* The median time of [work] on the host the bounds were set on (a
   2-core Xeon share) while it was quiet.  Wall times are reported at
   this speed: multiplied by [nominal] over the time [work] took beside
   them. *)
let nominal = 340e-6

let time () =
  let t0 = Unix.gettimeofday () in
  work ();
  Unix.gettimeofday () -. t0
