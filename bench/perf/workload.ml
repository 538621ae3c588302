(* The four workloads, all open loop with Poisson arrivals over the
   keyed-counter app (zipf 0.99 over 4,096 keys), and what each one
   reports.  The stacks of one workload see the same generated requests:
   the schedule depends on the seed and the workload alone.

   Durations are multiples of [seconds] (8 by default).  Every phase
   warms up for seconds/8 on its own deployment first.  Failover
   measures 1.5 x seconds, crashes the leader at seconds/2 and restarts
   Rex's replica at seconds, twice per stack; a metric of repeated phases
   is the median of their values.  Eve measures seconds/4, a max-rate
   probe seconds/2.  The other windows are as long as their numbers need
   to repeat across seeds.  The simulator's wall-clock speed needs about
   10 s of wall time per workload on a 2-core host, so kv-agree measures
   2 x seconds and kv-reads 4 x seconds.  At two thirds of SMR's capacity
   the kv-cpu tails of SMR and of early scheduling come from rare arrival
   bursts, so those two phases measure 16 and 8 x seconds. *)

open Sim
module R = Rex_core

let names = [ "kv-agree"; "kv-cpu"; "kv-reads"; "failover" ]

type config = {
  seed : int;
  seconds : float;
  trace : bool;
  search : bool;  (* run kv-cpu's max-rate search *)
}

let parallel = Stack.[ Rex; Smr; Cbase; Early ]

let base cfg kind =
  {
    Phase.kind;
    seed = cfg.seed;
    trace = cfg.trace;
    sessions = 20_000;
    rate = 8_000.;
    read_ratio = 0.1;
    query_reads = false;
    inc_cost = 0.;
    warm = cfg.seconds /. 8.;
    measure = cfg.seconds;
    fault = None;
    limit = None;
  }

let cpu cfg kind =
  {
    (base cfg kind) with
    sessions = 2_000;
    rate = 1_500.;
    inc_cost = 500e-6;
    measure =
      (cfg.seconds *. match kind with Stack.Smr -> 16. | Stack.Early -> 8. | _ -> 1.);
  }

let phases cfg = function
  | "kv-agree" -> List.map (fun k -> { (base cfg k) with measure = 2. *. cfg.seconds }) parallel
  | "kv-cpu" ->
    (* Eve first: its allocation rate balloons a heap that earlier
       phases left large. *)
    { (cpu cfg Stack.Eve) with measure = cfg.seconds /. 4. } :: List.map (cpu cfg) parallel
  | "kv-reads" ->
    List.map
      (fun k ->
        { (base cfg k) with read_ratio = 0.95; query_reads = true; measure = 4. *. cfg.seconds })
      parallel
  | "failover" ->
    (* Two outages per stack, on two schedules: one leader election is
       too little wall time for the simulator's speed to be measured. *)
    List.concat_map
      (fun k -> List.init 2 (fun rep -> (k, cfg.seed + (1_000_000 * rep))))
      parallel
    |> List.map (fun (k, seed) ->
        {
          (base cfg k) with
          seed;
          rate = 4_000.;
          measure = 1.5 *. cfg.seconds;
          fault =
            Some
              {
                Phase.crash_at = cfg.seconds /. 2.;
                restart_at = (if k = Stack.Rex then Some cfg.seconds else None);
              };
        })
  | w -> invalid_arg ("unknown workload " ^ w)

(* ---------------------------------------------------------------- *)
(* Max rate: the highest rate whose probe (warm-up plus seconds/2
   measured) keeps p99 <= 25 ms and failures <= 0.1%, and drains its
   backlog within 0.5 s of the last arrival.  Seven bisection steps in
   log rate over [250, 32000] req/s; a probe stops at the first breach.
   The final bracket is then confirmed: its low end must pass and its
   high end must fail, probing an end the bisection never tried (the
   search limits themselves). *)

let slo = 25e-3
let search_lo = 250.
let search_hi = 32_000.

let probe cfg kind rate =
  let measure = cfg.seconds /. 2. in
  let planned = rate *. measure in
  let limit =
    {
      Drive.lat = slo;
      max_late = int_of_float (0.01 *. planned);
      max_failed = int_of_float (0.001 *. planned);
    }
  in
  let p =
    Phase.run ~check:false ~setups:1
      { (cpu cfg kind) with trace = false; rate; measure; limit = Some limit }
  in
  let r = Layers.requests p in
  let answered = Array.length r.latency in
  let total = answered + r.failed in
  let p99 =
    let i = int_of_float (Float.ceil (0.99 *. float total)) - 1 in
    if i < answered then r.latency.(max 0 i) else infinity
  in
  (not p.d.breached) && p.drained_in_time && p.violations = [] && p99 <= slo
  && float r.failed <= 0.001 *. float r.arrivals

let max_rate cfg kind =
  let seen = Hashtbl.create 9 in
  let passes rate =
    match Hashtbl.find_opt seen rate with
    | Some v -> v
    | None ->
      let v = probe cfg kind rate in
      Hashtbl.replace seen rate v;
      v
  in
  let lo = ref search_lo and hi = ref search_hi in
  for _ = 1 to 7 do
    let mid = sqrt (!lo *. !hi) in
    if passes mid then lo := mid else hi := mid
  done;
  let note =
    match (passes !lo, passes !hi) with
    | true, false -> []
    | lo_ok, hi_ok ->
      [
        Printf.sprintf "%s max-rate bracket [%.0f, %.0f] not confirmed: low end %s, high end %s"
          (Stack.name kind) !lo !hi
          (if lo_ok then "passes" else "fails")
          (if hi_ok then "passes" else "fails");
      ]
  in
  (!lo, note)

(* ---------------------------------------------------------------- *)
(* Two references that do not depend on any replication stack. *)

(* The unreplicated app on one 8-core node, fed the workload's requests
   back to back by 8 workers: the paper's "% of native" yardstick. *)
let native_capacity (spec : Phase.spec) =
  let evs =
    Drive.schedule ~seed:spec.seed ~sessions:spec.sessions ~rate:spec.rate
      ~read_ratio:spec.read_ratio ~duration:spec.measure
  in
  let eng = Engine.create ~seed:spec.seed ~cores_per_node:Stack.cores ~num_nodes:1 () in
  let rt = Rexsync.Runtime.create (Par.Backend.of_sim eng) ~node:0 ~slots:1 in
  let app = Kv.factory ~inc_cost:spec.inc_cost (R.Api.make rt) in
  let n = Array.length evs and next = ref 0 and last = ref 0. in
  for _ = 1 to Stack.workers do
    ignore
      (Engine.spawn eng ~node:0 (fun () ->
           while !next < n do
             let ev = evs.(!next) in
             incr next;
             let request =
               if ev.read then Kv.get ~key:ev.key else Kv.inc ~key:ev.key ~tag:"native"
             in
             ignore (app.R.App.execute ~request)
           done;
           last := Float.max !last (Engine.now ())))
  done;
  Engine.run eng;
  float n /. !last

(* Wall time of the session-envelope and batch codecs on 64 requests of
   the workload, as the median of 7 timed rounds of [round] seconds. *)
let codec ~round (spec : Phase.spec) =
  let evs =
    Drive.schedule ~seed:spec.seed ~sessions:spec.sessions ~rate:spec.rate
      ~read_ratio:spec.read_ratio ~duration:1.
  in
  let envs =
    List.init 64 (fun i ->
        let ev = evs.(i mod Array.length evs) in
        let payload =
          if ev.read then Kv.get ~key:ev.key
          else Kv.inc ~key:ev.key ~tag:(Printf.sprintf "t%d.%d" ev.session ev.seq)
        in
        R.Session.Envelope.encode { R.Session.Envelope.client = ev.session; seq = ev.seq; payload })
  in
  let batch = R.Frontend.encode_batch envs in
  let time ~per f =
    let rounds =
      List.init 7 (fun _ ->
          let iters = ref 0 and t0 = Unix.gettimeofday () in
          while Unix.gettimeofday () -. t0 < round do
            f ();
            incr iters
          done;
          1e9 *. (Unix.gettimeofday () -. t0) /. float (!iters * per))
    in
    Metric.median rounds
  in
  let m name v = Metric.v ~kind:Metric.Wall ("codec." ^ name) "ns" v in
  [
    m "envelope_decode_ns"
      (time ~per:64 (fun () -> List.iter (fun e -> ignore (R.Session.Envelope.decode e)) envs));
    m "batch_encode_ns" (time ~per:1 (fun () -> ignore (R.Frontend.encode_batch envs)));
    m "batch_decode_ns" (time ~per:1 (fun () -> ignore (R.Frontend.decode_batch batch)));
  ]

(* ---------------------------------------------------------------- *)

type result = {
  name : string;
  e2e : Metric.t list;
  layers : Metric.t list;
  arrivals : int;
  failed : int;
  violations : string list;
  wall_s : float;
  notes : string list;
}

let run ?tracefile cfg name =
  let w0 = Unix.gettimeofday () in
  let specs = phases cfg name in
  let viols = ref [] and e2e = ref [] and layers = ref [] in
  let arrivals = ref 0 and failed = ref 0 and shed = ref 0 and lateness = ref [] in
  let setup = ref 0. and answered = ref 0 and measure_wall = ref 0. in
  List.iter
    (fun (spec : Phase.spec) ->
      let p = Phase.run spec in
      let r = Layers.requests p in
      let label = Stack.name spec.kind in
      viols := !viols @ List.map (fun v -> Printf.sprintf "%s/%s: %s" name label v) p.violations;
      e2e := !e2e @ Layers.e2e p r;
      layers := !layers @ Layers.layers p r;
      arrivals := !arrivals + r.arrivals;
      failed := !failed + r.failed;
      shed := !shed + r.shed;
      lateness := List.rev_append r.lateness !lateness;
      setup := !setup +. p.setup_wall;
      answered := !answered + Array.length r.latency;
      measure_wall := !measure_wall +. p.measure_wall;
      Option.iter (fun tf -> Tracefile.add tf ~label:(name ^ "/" ^ label) p.st.eng) tracefile)
    specs;
  let notes = ref [] in
  if name = "kv-cpu" && cfg.search then
    List.iter
      (fun kind ->
        let rate, note = max_rate cfg kind in
        notes := !notes @ note;
        e2e :=
          !e2e
          @ [ Metric.v ~better:Metric.Higher (Stack.name kind ^ ".max_rate_rps") "req/s" rate ])
      parallel;
  let reference = List.find (fun (s : Phase.spec) -> s.kind = Stack.Rex) specs in
  let extra =
    (if name = "kv-cpu" then
       [ Metric.v ~better:Metric.Higher "native.capacity_rps" "req/s" (native_capacity reference) ]
     else [])
    @ codec ~round:(cfg.seconds /. 800.) reference
  in
  let workload_e2e =
    [
      Metric.v "failed_pct" "%" (100. *. float !failed /. float (max 1 !arrivals));
      Metric.v ~better:Metric.Higher ~kind:Metric.Wall "sim_req_per_wall_s" "req/s"
        (float !answered /. !measure_wall);
      Metric.v ~kind:Metric.Wall "setup_s" "s" !setup;
    ]
  in
  let workload_layers =
    [
      Metric.v "load.lateness_ms.p99" "ms"
        (1e3 *. Metric.percentile (Metric.sorted_of_list !lateness) 0.99);
      Metric.v "load.shed" "count" (float !shed);
    ]
  in
  {
    name;
    e2e = Metric.combine !e2e @ workload_e2e;
    layers = workload_layers @ Metric.combine !layers @ extra;
    arrivals = !arrivals;
    failed = !failed;
    violations = !viols;
    wall_s = Unix.gettimeofday () -. w0;
    notes = !notes;
  }
