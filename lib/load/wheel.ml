type 'a item = { at : float; tk : int; seq : int; v : 'a }

type 'a t = {
  tick : float;
  t0 : float;
  slots : int;
  nlevels : int;
  divs : int array;  (* divs.(l) = slots^l: tick-group width of level l *)
  spans : int array;  (* spans.(l) = slots^(l+1): reach of level l *)
  buckets : 'a item list array array;
  counts : int array;  (* per-level populations, for next_due level skip *)
  mutable cur : int;  (* every timer with tk <= cur has fired *)
  mutable n : int;
  mutable seqc : int;
}

let create ?(tick = 1e-3) ?(slots = 256) ?(levels = 4) ~now () =
  if tick <= 0. then invalid_arg "Load.Wheel.create: tick";
  if slots < 2 then invalid_arg "Load.Wheel.create: slots";
  if levels < 1 then invalid_arg "Load.Wheel.create: levels";
  let divs = Array.make levels 1 in
  for l = 1 to levels - 1 do
    divs.(l) <- divs.(l - 1) * slots
  done;
  {
    tick;
    t0 = now;
    slots;
    nlevels = levels;
    divs;
    spans = Array.map (fun d -> d * slots) divs;
    buckets = Array.init levels (fun _ -> Array.make slots []);
    counts = Array.make levels 0;
    cur = 0;
    n = 0;
    seqc = 0;
  }

let length t = t.n

(* Strict [delta < spans.(l)] keeps every in-range timer's slot distinct
   from the cursor's own slot at that level, so a bucket is never both
   "just drained" and "holds the farthest future" — which is what makes
   the circular next_due scan sound at levels below the top. *)
let place t it =
  let delta = it.tk - t.cur in
  let delta = if delta < 1 then 1 else delta in
  let rec pick l =
    if l = t.nlevels - 1 || delta < t.spans.(l) then l else pick (l + 1)
  in
  let l = pick 0 in
  let tk =
    if delta >= t.spans.(l) then t.cur + t.spans.(l) - 1 else t.cur + delta
  in
  let slot = tk / t.divs.(l) mod t.slots in
  t.buckets.(l).(slot) <- it :: t.buckets.(l).(slot);
  t.counts.(l) <- t.counts.(l) + 1

let add t ~at v =
  let tk =
    let k = int_of_float (Float.floor ((at -. t.t0) /. t.tick)) in
    if k <= t.cur then t.cur + 1 else k
  in
  let it = { at; tk; seq = t.seqc; v } in
  t.seqc <- t.seqc + 1;
  t.n <- t.n + 1;
  place t it

let cmp_item a b =
  match Float.compare a.at b.at with 0 -> compare a.seq b.seq | c -> c

let pop_until t ~now f =
  let target = int_of_float (Float.floor ((now -. t.t0) /. t.tick)) in
  let popped = ref 0 in
  while t.cur < target do
    if t.n = 0 then t.cur <- target
      (* all buckets empty: cascades would be no-ops, jump is exact *)
    else begin
      let c = t.cur + 1 in
      t.cur <- c;
      for l = t.nlevels - 1 downto 1 do
        if c mod t.divs.(l) = 0 then begin
          let slot = c / t.divs.(l) mod t.slots in
          match t.buckets.(l).(slot) with
          | [] -> ()
          | items ->
            t.buckets.(l).(slot) <- [];
            t.counts.(l) <- t.counts.(l) - List.length items;
            List.iter (place t) items
        end
      done;
      let slot = c mod t.slots in
      match t.buckets.(0).(slot) with
      | [] -> ()
      | items ->
        t.buckets.(0).(slot) <- [];
        t.counts.(0) <- t.counts.(0) - List.length items;
        let arr = Array.of_list items in
        Array.sort cmp_item arr;
        t.n <- t.n - Array.length arr;
        Array.iter
          (fun it ->
            incr popped;
            f it.at it.v)
          arr
    end
  done;
  !popped

let bucket_min best b = List.iter (fun it -> if it.at < !best then best := it.at) b

(* Each level's earliest timer, minimised over every non-empty level: a
   timer parked on a higher level before the cursor moved can be due
   sooner than everything on a lower one. *)
let next_due t =
  if t.n = 0 then None
  else begin
    let best = ref infinity in
    for l = 0 to t.nlevels - 1 do
      if t.counts.(l) > 0 then
        if l = t.nlevels - 1 then
          (* the top level may hold clamped far-future timers whose slot
             order does not reflect time order: take its global min *)
          Array.iter (bucket_min best) t.buckets.(l)
        else begin
          (* the first non-empty bucket in circular order from the cursor
             holds the level's earliest timers *)
          let level = ref infinity in
          let pos = t.cur / t.divs.(l) in
          let i = ref 1 in
          while !level = infinity && !i <= t.slots do
            bucket_min level t.buckets.(l).((pos + !i) mod t.slots);
            incr i
          done;
          if !level < !best then best := !level
        end
    done;
    Some !best
  end
