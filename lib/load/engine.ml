module E = Sim.Engine
module B = Par.Backend

type outcome = Done | Rejected | Timeout | Error
type target = session:int -> seq:int -> key:int -> read:bool -> outcome

let null_target ~session:_ ~seq:_ ~key:_ ~read:_ = Done

type config = {
  sessions : int;
  profile : Arrivals.profile;
  duration : float;
  keys : int;
  theta : float;
  read_ratio : float;
  session_inflight : int;
  queue_cap : int;
  callers : int;
  slo : float;
  seed : int;
  trace_cap : int;
}

let config ?(keys = 1024) ?(theta = 0.99) ?(read_ratio = 0.5)
    ?(session_inflight = 1) ?(queue_cap = 4096) ?(callers = 128) ?(slo = 0.05)
    ?(trace_cap = 0) ~sessions ~profile ~duration ~seed () =
  if sessions <= 0 then invalid_arg "Load.Engine.config: sessions";
  if duration <= 0. then invalid_arg "Load.Engine.config: duration";
  if keys <= 0 then invalid_arg "Load.Engine.config: keys";
  if read_ratio < 0. || read_ratio > 1. then
    invalid_arg "Load.Engine.config: read_ratio";
  (* the per-session inflight table is one byte per session *)
  if session_inflight < 1 || session_inflight > 255 then
    invalid_arg "Load.Engine.config: session_inflight";
  if queue_cap < 1 then invalid_arg "Load.Engine.config: queue_cap";
  if callers < 1 then invalid_arg "Load.Engine.config: callers";
  if slo <= 0. then invalid_arg "Load.Engine.config: slo";
  if trace_cap < 0 then invalid_arg "Load.Engine.config: trace_cap";
  Arrivals.validate profile;
  {
    sessions;
    profile;
    duration;
    keys;
    theta;
    read_ratio;
    session_inflight;
    queue_cap;
    callers;
    slo;
    seed;
    trace_cap;
  }

type stats = {
  generated : int;
  admitted : int;
  ok : int;
  shed_session : int;
  shed_queue : int;
  busy : int;
  timeouts : int;
  errors : int;
  slo_ok : int;
  slo_breach : int;
  max_queue : int;
  mean : float;
  p50 : float;
  p99 : float;
  p999 : float;
  max_lat : float;
  trace : (float * int * int) array;
}

let shed s = s.shed_session + s.shed_queue + s.busy

type job = {
  j_sched : float;  (* absolute scheduled arrival time *)
  j_session : int;
  j_seq : int;
  j_key : int;
  j_read : bool;
}

let run b ~node ?timeline ~target cfg =
  let obs = B.obs b in
  let ctr name = Obs.counter obs ~subsystem:"load" name in
  let c_gen = ctr "generated"
  and c_adm = ctr "admitted"
  and c_ok = ctr "ok"
  and c_shed_session = ctr "shed_session"
  and c_shed_queue = ctr "shed_queue"
  and c_busy = ctr "busy"
  and c_timeout = ctr "timeout"
  and c_error = ctr "error"
  and c_slo_ok = ctr "slo_ok"
  and c_slo_breach = ctr "slo_breach" in
  let g_queue = Obs.gauge obs ~subsystem:"load" "queue_depth"
  and g_inflight = Obs.gauge obs ~subsystem:"load" "inflight" in
  let reg_hist = Obs.histogram obs ~subsystem:"load" "latency" in
  let hist = Obs.Histogram.create () in
  let gen =
    Gen.create ~sessions:cfg.sessions ~duration:cfg.duration
      ~profile:cfg.profile ~keys:cfg.keys ~theta:cfg.theta
      ~read_ratio:cfg.read_ratio ~seed:cfg.seed ()
  in
  let m = B.mutex b in
  let nonempty = B.cond b in
  let alldone = B.cond b in
  let q : job Queue.t = Queue.create () in
  let inflight = Bytes.make cfg.sessions '\000' in
  let n_inflight = ref 0 in
  let outstanding = ref 0 in
  let gen_done = ref false in
  (* the registry's counters are the outcome counts; [stats] reports
     their change over this run *)
  let value = Obs.Metric.value in
  let gen0 = value c_gen
  and adm0 = value c_adm
  and ok0 = value c_ok
  and shed_session0 = value c_shed_session
  and shed_queue0 = value c_shed_queue
  and busy0 = value c_busy
  and timeout0 = value c_timeout
  and error0 = value c_error
  and slo_ok0 = value c_slo_ok
  and slo_breach0 = value c_slo_breach in
  let max_queue = ref 0 in
  let trace = Array.make cfg.trace_cap (0., 0, 0) in
  let trace_n = ref 0 in
  let tl_record lat now =
    match timeline with
    | None -> ()
    | Some tl -> Obs.Timeline.record tl ?latency:lat now
  in
  let tl_shed now =
    match timeline with None -> () | Some tl -> Obs.Timeline.shed tl now
  in
  let t_start = B.clock b in
  let handle (ev : Gen.ev) =
    Obs.Metric.incr c_gen;
    if !trace_n < cfg.trace_cap then begin
      trace.(!trace_n) <- (ev.at, ev.session, ev.key);
      incr trace_n
    end;
    m.m_lock ();
    let infl = Char.code (Bytes.get inflight ev.session) in
    if infl >= cfg.session_inflight then begin
      Obs.Metric.incr c_shed_session;
      tl_shed (t_start +. ev.at)
    end
    else if Queue.length q >= cfg.queue_cap then begin
      Obs.Metric.incr c_shed_queue;
      tl_shed (t_start +. ev.at)
    end
    else begin
      Bytes.set inflight ev.session (Char.chr (infl + 1));
      incr n_inflight;
      incr outstanding;
      Obs.Metric.incr c_adm;
      Queue.push
        {
          j_sched = t_start +. ev.at;
          j_session = ev.session;
          j_seq = ev.seq;
          j_key = ev.key;
          j_read = ev.read;
        }
        q;
      let d = Queue.length q in
      if d > !max_queue then max_queue := d;
      Obs.Metric.set g_queue (float_of_int d);
      Obs.Metric.set_max g_inflight (float_of_int !n_inflight);
      nonempty.c_signal ()
    end;
    m.m_unlock ()
  in
  let dispatcher () =
    let rec loop () =
      let rel = E.now () -. t_start in
      ignore (Gen.pull gen ~until:rel handle);
      match Gen.next_due gen with
      | None ->
        m.m_lock ();
        gen_done := true;
        nonempty.c_broadcast ();
        alldone.c_broadcast ();
        m.m_unlock ()
      | Some at ->
        (* never sleep less than a tick: an arrival due in the past
           fires on the next tick, and a zero sleep would spin *)
        E.sleep (Float.max (t_start +. at -. E.now ()) Gen.tick);
        loop ()
    in
    loop ()
  in
  let caller () =
    let rec loop () =
      m.m_lock ();
      while Queue.is_empty q && not !gen_done do
        nonempty.c_wait m
      done;
      if Queue.is_empty q then m.m_unlock ()
      else begin
        let j = Queue.pop q in
        Obs.Metric.set g_queue (float_of_int (Queue.length q));
        m.m_unlock ();
        let outcome =
          target ~session:j.j_session ~seq:j.j_seq ~key:j.j_key ~read:j.j_read
        in
        let fin = E.now () in
        let lat = fin -. j.j_sched in
        m.m_lock ();
        Bytes.set inflight j.j_session
          (Char.chr (Char.code (Bytes.get inflight j.j_session) - 1));
        decr n_inflight;
        decr outstanding;
        (match outcome with
        | Done ->
          Obs.Metric.incr c_ok;
          Obs.Histogram.observe hist lat;
          Obs.Histogram.observe reg_hist lat;
          Obs.Metric.incr (if lat <= cfg.slo then c_slo_ok else c_slo_breach);
          tl_record (Some lat) fin
        | Rejected ->
          Obs.Metric.incr c_busy;
          tl_shed fin
        | Timeout ->
          Obs.Metric.incr c_timeout;
          Obs.Metric.incr c_slo_breach
        | Error ->
          Obs.Metric.incr c_error);
        if !gen_done && !outstanding = 0 && Queue.is_empty q then
          alldone.c_broadcast ();
        m.m_unlock ();
        loop ()
      end
    in
    loop ()
  in
  B.spawn b ~node ~name:"load-dispatcher" dispatcher;
  for i = 0 to cfg.callers - 1 do
    B.spawn b ~node ~name:(Printf.sprintf "load-caller-%d" i) caller
  done;
  m.m_lock ();
  while not (!gen_done && !outstanding = 0 && Queue.is_empty q) do
    alldone.c_wait m
  done;
  m.m_unlock ();
  let since c c0 = value c - c0 in
  {
    generated = since c_gen gen0;
    admitted = since c_adm adm0;
    ok = since c_ok ok0;
    shed_session = since c_shed_session shed_session0;
    shed_queue = since c_shed_queue shed_queue0;
    busy = since c_busy busy0;
    timeouts = since c_timeout timeout0;
    errors = since c_error error0;
    slo_ok = since c_slo_ok slo_ok0;
    slo_breach = since c_slo_breach slo_breach0;
    max_queue = !max_queue;
    mean = Obs.Histogram.mean hist;
    p50 = Obs.Histogram.p50 hist;
    p99 = Obs.Histogram.p99 hist;
    p999 = Obs.Histogram.quantile hist 0.999;
    max_lat = Obs.Histogram.max_seen hist;
    trace = Array.sub trace 0 !trace_n;
  }
