type ev = { at : float; session : int; seq : int; key : int; read : bool }

type t = {
  duration : float;
  profile : Arrivals.profile;
  sessions : int;
  read_ratio : float;
  rng : Sim.Rng.t;
  zipf : Workload.Zipf.t;
  wheel : int Wheel.t;
  seqs : int array;
  mutable count : int;
}

let wheel_tick = 1e-3

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
      wheel = Wheel.create ~tick:wheel_tick ~now:0. ();
      seqs = Array.make sessions 0;
      count = 0;
    }
  in
  for s = 0 to sessions - 1 do
    let gap = Arrivals.next_gap profile ~sessions rng ~rel_now:0. in
    if gap <= duration then Wheel.add t.wheel ~at:gap s
  done;
  t

let pull t ~until f =
  Wheel.pop_until t.wheel ~now:until (fun at s ->
      let seq = t.seqs.(s) in
      t.seqs.(s) <- seq + 1;
      let key = Workload.Zipf.sample t.zipf t.rng in
      let read = Sim.Rng.float t.rng 1.0 < t.read_ratio in
      t.count <- t.count + 1;
      f { at; session = s; seq; key; read };
      let next =
        at +. Arrivals.next_gap t.profile ~sessions:t.sessions t.rng ~rel_now:at
      in
      if next <= t.duration then Wheel.add t.wheel ~at:next s)

let next_due t = Wheel.next_due t.wheel
let generated t = t.count
let finished t = Wheel.length t.wheel = 0
