type ev = { at : float; session : int; seq : int; key : int; read : bool }

(* A session has at most one pending arrival, so the schedule lives in
   per-session arrays: its time ([due]), the tick it fires in
   ([due_tick]) and its filing order ([order], which breaks ties within a
   tick).  The sessions firing in one tick form a chain through [link],
   headed in a ring of [ring] ticks; a session filed [ring] or more ticks
   ahead shares its chain with nearer ones and is skipped until its tick
   comes. *)
type t = {
  duration : float;
  profile : Arrivals.profile;
  sessions : int;
  read_ratio : float;
  rng : Sim.Rng.t;
  zipf : Workload.Zipf.t;
  seqs : int array;
  due : Float.Array.t;
  due_tick : int array;
  order : int array;
  link : int array;
  heads : int array;
  batch : int array;  (* the sessions firing in the current tick *)
  mutable cur : int;  (* every arrival filed for a tick <= cur has fired *)
  mutable first : int;  (* no pending arrival fires before this tick *)
  mutable filed : int;
  mutable pending : int;
  mutable count : int;
}

let tick = 1e-3
let ring = 1 lsl 16
let tick_of at = int_of_float (Float.floor (at /. tick))

let file t s at =
  let k = tick_of at and cur = t.cur in
  (* The timer wheel this replaced fired an arrival due exactly on a
     256-tick boundary one tick late when it had been filed 256 or more
     ticks ahead (it came down by cascade); kept, so schedules stay as
     they were. *)
  let e =
    if k <= cur then cur + 1
    else if k - cur >= 256 && k land 255 = 0 then k + 1
    else k
  in
  Float.Array.set t.due s at;
  t.due_tick.(s) <- e;
  t.order.(s) <- t.filed;
  t.filed <- t.filed + 1;
  if e < t.first then t.first <- e;
  let h = e land (ring - 1) in
  t.link.(s) <- t.heads.(h);
  t.heads.(h) <- s;
  t.pending <- t.pending + 1

let create ~sessions ~duration ~profile ~keys ~theta ~read_ratio ~seed () =
  if sessions <= 0 then invalid_arg "Load.Gen.create: sessions";
  if duration <= 0. then invalid_arg "Load.Gen.create: duration";
  Arrivals.validate profile;
  let rng = Sim.Rng.create seed in
  let t =
    {
      duration;
      profile;
      sessions;
      read_ratio;
      rng;
      zipf = Workload.Zipf.create ~n:keys ~theta;
      seqs = Array.make sessions 0;
      due = Float.Array.make sessions 0.;
      due_tick = Array.make sessions 0;
      order = Array.make sessions 0;
      link = Array.make sessions (-1);
      heads = Array.make ring (-1);
      batch = Array.make sessions 0;
      cur = 0;
      first = max_int;
      filed = 0;
      pending = 0;
      count = 0;
    }
  in
  for s = 0 to sessions - 1 do
    let gap = Arrivals.next_gap profile ~sessions rng ~rel_now:0. in
    if gap <= duration then file t s gap
  done;
  t

let before t a b =
  let da = Float.Array.get t.due a and db = Float.Array.get t.due b in
  da < db || (da = db && t.order.(a) < t.order.(b))

(* Unlink the sessions firing in tick [c] into [batch], sorted by (due
   time, filing order); returns how many.  Shell sort, whose last pass
   is an insertion sort: a tick holds a few arrivals at the benchmark's
   rates, and the gaps keep a million-session burst from going
   quadratic. *)
let take t c =
  let h = c land (ring - 1) in
  let m = ref 0 and prev = ref (-1) and s = ref t.heads.(h) in
  while !s >= 0 do
    let next = t.link.(!s) in
    if t.due_tick.(!s) = c then begin
      if !prev < 0 then t.heads.(h) <- next else t.link.(!prev) <- next;
      t.batch.(!m) <- !s;
      incr m
    end
    else prev := !s;
    s := next
  done;
  let m = !m in
  let gap = ref 1 in
  while !gap < m / 3 do
    gap := (3 * !gap) + 1
  done;
  while !gap >= 1 do
    let g = !gap in
    for i = g to m - 1 do
      let v = t.batch.(i) in
      let j = ref i in
      while !j >= g && before t v t.batch.(!j - g) do
        t.batch.(!j) <- t.batch.(!j - g);
        j := !j - g
      done;
      t.batch.(!j) <- v
    done;
    gap := g / 3
  done;
  t.pending <- t.pending - m;
  m

let fire t s f =
  let at = Float.Array.get t.due s in
  let seq = t.seqs.(s) in
  t.seqs.(s) <- seq + 1;
  let key = Workload.Zipf.sample t.zipf t.rng in
  let read = Sim.Rng.float t.rng 1.0 < t.read_ratio in
  t.count <- t.count + 1;
  f { at; session = s; seq; key; read };
  let next =
    at +. Arrivals.next_gap t.profile ~sessions:t.sessions t.rng ~rel_now:at
  in
  if next <= t.duration then file t s next

let pull t ~until f =
  let target = tick_of until in
  let fired = ref 0 in
  while t.cur < target do
    if t.pending = 0 then t.cur <- target
    else begin
      let c = t.cur + 1 in
      t.cur <- c;
      let m = take t c in
      for i = 0 to m - 1 do
        fire t t.batch.(i) f
      done;
      fired := !fired + m
    end
  done;
  !fired

(* Earliest due time among the sessions firing in tick [x], or
   [infinity]. *)
let tick_min t x =
  let best = ref infinity and s = ref t.heads.(x land (ring - 1)) in
  while !s >= 0 do
    if t.due_tick.(!s) = x then
      best := Float.min !best (Float.Array.get t.due !s);
    s := t.link.(!s)
  done;
  !best

(* The earliest pending due time.  If [x] is the first tick with an
   arrival to fire, the earliest arrival fires in tick [x] or [x + 1]:
   tick [x] fires arrivals due in tick [x], due in [x - 1] (the boundary
   rule) or due earlier (filed late, only when [x = cur + 1]); tick
   [x + 1] fires arrivals due in [x + 1] or, by the boundary rule, in
   [x]; every later tick fires only arrivals due in tick [x + 1] or
   after, so later than everything tick [x] fires.  [x] is found by
   walking the ticks from [first], which [pull] would walk anyway. *)
let next_due t =
  let rec scan x = if tick_min t x < infinity then x else scan (x + 1) in
  if t.pending = 0 then None
  else begin
    let x = scan (max t.first (t.cur + 1)) in
    t.first <- x;
    Some (Float.min (tick_min t x) (tick_min t (x + 1)))
  end

let generated t = t.count
let finished t = t.pending = 0
