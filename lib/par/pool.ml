module RawM = Stdlib.Mutex

type t = {
  m : RawM.t;
  cv : Condition.t;
  q : (unit -> unit) Queue.t;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
  clock : Clock.t;
  mutable first_exn : exn option;  (* under [m]; backstop, see [Fiber] *)
  (* timer wheel *)
  tm : RawM.t;
  timers : (unit -> unit) Sim.Pqueue.t;
  mutable timer_stop : bool;
  mutable timer : unit Domain.t option;
  (* metrics *)
  c_tasks : Obs.Metric.counter;
  g_depth : Obs.Metric.gauge;
  g_depth_max : Obs.Metric.gauge;
  g_busy : Obs.Metric.gauge array;
}

let size t = Array.length t.g_busy

let record_exn t e =
  RawM.lock t.m;
  if t.first_exn = None then t.first_exn <- Some e;
  RawM.unlock t.m

let first_exn t =
  RawM.lock t.m;
  let e = t.first_exn in
  RawM.unlock t.m;
  e

let rec worker_loop t i =
  RawM.lock t.m;
  while Queue.is_empty t.q && not t.stop do
    Condition.wait t.cv t.m
  done;
  match Queue.take_opt t.q with
  | None ->
    (* stop requested and the queue is drained *)
    RawM.unlock t.m
  | Some task ->
    Obs.Metric.set t.g_depth (float_of_int (Queue.length t.q));
    RawM.unlock t.m;
    Obs.Metric.incr t.c_tasks;
    let t0 = Clock.now t.clock in
    (try task () with e -> record_exn t e);
    let g = t.g_busy.(i) in
    (* only domain [i] writes its own busy gauge *)
    Obs.Metric.set g (Obs.Metric.get g +. (Clock.now t.clock -. t0));
    worker_loop t i

let submit t task =
  RawM.lock t.m;
  if t.stop then begin
    RawM.unlock t.m;
    invalid_arg "Par.Pool.submit: pool is shut down"
  end;
  Queue.push task t.q;
  let d = float_of_int (Queue.length t.q) in
  Obs.Metric.set t.g_depth d;
  Obs.Metric.set_max t.g_depth_max d;
  Condition.signal t.cv;
  RawM.unlock t.m

(* The stdlib [Condition] has no timed wait, so the timer wheel is a
   polling domain: fire everything due, then sleep until the next
   deadline, capped at 1ms so shutdown and freshly-armed earlier timers
   are noticed promptly.  Millisecond wakeup granularity is far below
   the sleeps the stacks use (network timeouts, checkpoint periods). *)
let rec timer_loop t =
  let now = Clock.now t.clock in
  let due = ref [] in
  RawM.lock t.tm;
  while
    (not (Sim.Pqueue.is_empty t.timers)) && Sim.Pqueue.min_priority t.timers <= now
  do
    due := Sim.Pqueue.pop_value t.timers :: !due
  done;
  let next =
    if Sim.Pqueue.is_empty t.timers then None else Some (Sim.Pqueue.min_priority t.timers)
  in
  let stopping = t.timer_stop in
  RawM.unlock t.tm;
  List.iter (fun f -> try submit t f with Invalid_argument _ -> ()) (List.rev !due);
  if not stopping then begin
    let pause =
      match next with
      | Some at -> Float.max 50e-6 (Float.min 1e-3 (at -. now))
      | None -> 1e-3
    in
    Unix.sleepf pause;
    timer_loop t
  end

let submit_after t ~delay task =
  RawM.lock t.tm;
  if t.timer_stop then begin
    RawM.unlock t.tm;
    invalid_arg "Par.Pool.submit_after: pool is shut down"
  end;
  Sim.Pqueue.add t.timers ~priority:(Clock.now t.clock +. Float.max 0. delay) task;
  RawM.unlock t.tm

let create ~obs ~clock ~domains () =
  if domains <= 0 then invalid_arg "Par.Pool.create: domains";
  let label i = [ ("domain", string_of_int i) ] in
  let t =
    {
      m = RawM.create ();
      cv = Condition.create ();
      q = Queue.create ();
      stop = false;
      workers = [];
      clock;
      first_exn = None;
      tm = RawM.create ();
      timers = Sim.Pqueue.create ();
      timer_stop = false;
      timer = None;
      c_tasks = Obs.counter obs ~subsystem:"par" "pool_tasks";
      g_depth = Obs.gauge obs ~subsystem:"par" "queue_depth";
      g_depth_max = Obs.gauge obs ~subsystem:"par" "queue_depth_max";
      g_busy =
        Array.init domains (fun i ->
            Obs.gauge obs ~subsystem:"par" ~labels:(label i) "domain_busy");
    }
  in
  t.workers <- List.init domains (fun i -> Domain.spawn (fun () -> worker_loop t i));
  t.timer <- Some (Domain.spawn (fun () -> timer_loop t));
  t

let shutdown t =
  RawM.lock t.tm;
  t.timer_stop <- true;
  RawM.unlock t.tm;
  Option.iter Domain.join t.timer;
  t.timer <- None;
  RawM.lock t.m;
  t.stop <- true;
  Condition.broadcast t.cv;
  RawM.unlock t.m;
  List.iter Domain.join t.workers;
  t.workers <- []
