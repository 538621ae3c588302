(* One deployment driven through one phase: set up (schedule, deploy,
   elect, warm up; three times, measuring the last), measure, drain,
   check.  Everything here observes the stack from outside: the
   client-side arrays of Drive, the public Obs registry, Engine.busy_time
   and Gc.quick_stat. *)

open Sim
module R = Rex_core

let wall = Unix.gettimeofday

(* Pseudo-process id of the benchmark's own spans in the Chrome trace. *)
let perf_pid = 9

type fault = { crash_at : float; restart_at : float option }
(* Times are relative to the start of the measured window. *)

type spec = {
  kind : Stack.kind;
  seed : int;
  trace : bool;
  sessions : int;
  rate : float;
  read_ratio : float;
  query_reads : bool;
  inc_cost : float;
  warm : float;
  measure : float;
  fault : fault option;
  limit : Drive.limit option;
}

(* Registry values keyed "subsystem/name" plus the node label, if any. *)
type snapshot = {
  values : (string * int option, float) Hashtbl.t;
  busy : float array;
  at : float;
}

type t = {
  spec : spec;
  st : Stack.t;
  d : Drive.t;
  setup_wall : float;
  measure_wall : float;
  minor_words : float;
  promoted_words : float;
  s0 : snapshot;
  s1 : snapshot;
  leader0 : int;  (* the leader when measuring started *)
  leader1 : int;  (* ... and when it ended *)
  election_ms : float option;
  catchup_ms : float option;
  drained_in_time : bool;
  violations : string list;
}

let snapshot eng =
  let values = Hashtbl.create 256 in
  let add k v =
    Hashtbl.replace values k (v +. Option.value (Hashtbl.find_opt values k) ~default:0.)
  in
  Obs.Registry.fold (Obs.registry (Engine.obs eng)) ~init:()
    ~f:(fun () (key : Obs.Registry.key) inst ->
      let node = Option.map int_of_string (List.assoc_opt "node" key.labels) in
      let k = (key.subsystem ^ "/" ^ key.name, node) in
      match inst with
      | Obs.Registry.Counter c -> add k (float_of_int (Obs.Metric.value c))
      | Obs.Registry.Gauge g -> add k (Obs.Metric.get g)
      | Obs.Registry.Histogram _ -> ());
  {
    values;
    busy = Array.init (Engine.num_nodes eng) (Engine.busy_time eng);
    at = Engine.clock eng;
  }

(* Histograms cannot be differenced, so they restart with the measured
   window instead; nothing in lib/ reads a histogram back. *)
let reset_histograms eng =
  Obs.Registry.fold (Obs.registry (Engine.obs eng)) ~init:() ~f:(fun () _ -> function
    | Obs.Registry.Histogram h -> Obs.Histogram.reset h
    | _ -> ())

let value s ?node name =
  Hashtbl.fold
    (fun (n, nd) v acc ->
      if n = name && (node = None || nd = node) then acc +. v else acc)
    s.values 0.

let delta p ?node name = value p.s1 ?node name -. value p.s0 ?node name

let histogram p ?node sub name =
  let reg = Obs.registry (Engine.obs p.st.Stack.eng) in
  Obs.Registry.fold reg ~init:None ~f:(fun acc (key : Obs.Registry.key) inst ->
      match inst with
      | Obs.Registry.Histogram h
        when key.subsystem = sub && key.name = name
             && (node = None
                || List.assoc_opt "node" key.labels = Option.map string_of_int node) ->
        (match acc with
        | None ->
          let m = Obs.Histogram.create () in
          Obs.Histogram.merge m h;
          Some m
        | Some m ->
          Obs.Histogram.merge m h;
          acc)
      | _ -> acc)

let span (st : Stack.t) name ~ts ~dur ?(args = []) () =
  let sp = Obs.spans (Engine.obs st.eng) in
  if Obs.Span.enabled sp then
    Obs.Span.complete sp ~cat:"perf" ~pid:perf_pid ~args ~name ~ts ~dur ()

(* The engine runs in slices of at most [slice] virtual seconds, each
   aiming at [slice_wall] wall seconds, so that the reference loop timed
   after a slice samples the host while the slice ran.  A slow stack
   (Eve) would otherwise run 0.45 s between two samples. *)
let slice = 0.1
let slice_wall = 0.01

(* Wall time spent inside Engine.run, in total and over the full slices
   divided by the reference loop timed right after each; the virtual
   length of those slices and of the next one; and the reference loop's
   times, their sum and what it allocated. *)
type clock = {
  mutable total : float;
  mutable scaled : float;
  mutable virt : float;
  mutable step : float;
  mutable refs : float list;
  mutable ref_wall : float;
  mutable ref_minor : float;
  mutable ref_promoted : float;
}

let clock () =
  {
    total = 0.;
    scaled = 0.;
    virt = 0.;
    step = slice;
    refs = [];
    ref_wall = 0.;
    ref_minor = 0.;
    ref_promoted = 0.;
  }

let time_reference c =
  let m0, p0, _ = Gc.counters () in
  let r = Host.time () in
  let m1, p1, _ = Gc.counters () in
  c.refs <- r :: c.refs;
  c.ref_wall <- c.ref_wall +. r;
  c.ref_minor <- c.ref_minor +. (m1 -. m0);
  c.ref_promoted <- c.ref_promoted +. (p1 -. p0);
  r

(* The simulator's wall cost of [span] virtual seconds at the reference
   host speed: each full slice's wall time is rescaled by the host speed
   measured right after it. *)
let scaled_wall c ~span =
  if c.virt = 0. then c.total else c.scaled /. c.virt *. Host.nominal *. span

(* Run the engine to [until], charging the wall time to [c]. *)
let pump (st : Stack.t) c ~until =
  let v0 = Engine.clock st.eng and w0 = wall () in
  Engine.run ~until st.eng;
  let dw = wall () -. w0 and dv = Engine.clock st.eng -. v0 in
  c.total <- c.total +. dw;
  if dv >= c.step *. 0.999 then begin
    c.scaled <- c.scaled +. (dw /. time_reference c);
    c.virt <- c.virt +. dv;
    c.step <- Float.min slice (Float.max (slice /. 100.) (dv *. slice_wall /. Float.max dw 1e-6))
  end;
  span st "engine.run" ~ts:v0 ~dur:dv ~args:[ ("wall_us", Printf.sprintf "%.0f" (dw *. 1e6)) ] ()

let elect (st : Stack.t) acc =
  let rec go () =
    match Stack.leader st with
    | Some l -> l
    | None ->
      if Engine.clock st.eng > 30. then failwith "perf: no leader elected in 30 s";
      pump st acc ~until:(Engine.clock st.eng +. 1e-3);
      go ()
  in
  go ()

(* Poll every millisecond until [cond] holds or [limit] is reached;
   returns the virtual time it took. *)
let poll (st : Stack.t) acc ~limit cond =
  let t0 = Engine.clock st.eng in
  let rec go () =
    if cond () then Some (1e3 *. (Engine.clock st.eng -. t0))
    else if Engine.clock st.eng >= limit then None
    else begin
      pump st acc ~until:(Float.min limit (Engine.clock st.eng +. 1e-3));
      go ()
    end
  in
  go ()

let run_until (st : Stack.t) acc ?(stop = fun () -> false) until =
  while Engine.clock st.eng < until && not (stop ()) do
    pump st acc ~until:(Float.min until (Engine.clock st.eng +. acc.step))
  done

let rex_server (st : Stack.t) node =
  match st.cluster with Some c -> R.Cluster.server c node | None -> assert false

(* ---------------------------------------------------------------- *)
(* Correctness: accounting, replica agreement, and per-key counters
   checked against what the clients were told. *)

let check_accounting (d : Drive.t) =
  let n = d.dispatched in
  let count s =
    let c = ref 0 in
    for i = 0 to n - 1 do
      if Drive.status d i = s then incr c
    done;
    !c
  in
  let shed = count Drive.shed and pending = count Drive.pending in
  let sent = n - shed in
  let outcomes =
    count Drive.ok + count Drive.busy + count Drive.gave_up + count Drive.error
  in
  if pending > 0 || sent <> outcomes then
    [ Printf.sprintf "accounting: %d arrivals, %d shed, %d sent, %d outcomes, %d pending"
        n shed sent outcomes pending ]
  else []

let await_agreement (st : Stack.t) acc =
  let digests () = List.map st.digest (Stack.live_replicas st) in
  let agree () =
    match digests () with [] -> true | d :: rest -> List.for_all (( = ) d) rest
  in
  ignore (poll st acc ~limit:(Engine.clock st.eng +. 5.) agree);
  let viols =
    if agree () then []
    else [ "replica digests differ: " ^ String.concat " " (digests ()) ]
  in
  match st.cluster with
  | Some c -> (
    match R.Cluster.check_no_divergence c with
    | () -> viols
    | exception Failure m -> m :: viols)
  | None -> viols

let check_counters (st : Stack.t) (d : Drive.t) =
  match Stack.leader st with
  | None -> [ "no leader to read counters through" ]
  | Some leader ->
    let ok_incs = Array.make Kv.keys [] and unsure = Array.make Kv.keys 0 in
    for i = 0 to d.dispatched - 1 do
      let ev = d.evs.(i) in
      let inc = not ev.read in
      let s = Drive.status d i in
      if inc && s = Drive.ok then ok_incs.(ev.key) <- d.value.(i) :: ok_incs.(ev.key)
      else if inc && (s = Drive.gave_up || s = Drive.error) then
        unsure.(ev.key) <- unsure.(ev.key) + 1
    done;
    let viols = ref [] in
    for k = Kv.keys - 1 downto 0 do
      let replies = List.sort_uniq compare ok_incs.(k) in
      let n = List.length ok_incs.(k) in
      let v =
        Option.value ~default:(-1) (int_of_string_opt (st.query leader (Kv.get ~key:k)))
      in
      if List.length replies <> n then
        viols := Printf.sprintf "key %d: two INCs got the same reply" k :: !viols
      else if v < n || v > n + unsure.(k) then
        viols :=
          Printf.sprintf "key %d: counter %d, %d INCs acknowledged, %d unresolved" k v n
            unsure.(k)
          :: !viols
    done;
    !viols

(* ---------------------------------------------------------------- *)

(* Schedule, deploy, elect and warm up.  Returns the deployment and the
   set-up's wall time at the reference host speed, the reference loop's
   own time left out. *)
let set_up spec =
  let w0 = wall () and c = clock () in
  for _ = 1 to 3 do
    ignore (time_reference c)
  done;
  let evs =
    Drive.schedule ~seed:spec.seed ~sessions:spec.sessions ~rate:spec.rate
      ~read_ratio:spec.read_ratio ~duration:(spec.warm +. spec.measure)
  in
  let st = Stack.create ~seed:spec.seed ~trace:spec.trace ~inc_cost:spec.inc_cost spec.kind in
  let leader0 = elect st c in
  let t0 = Engine.clock st.eng +. 1e-3 in
  let d =
    Drive.start ?limit:spec.limit ~query_reads:spec.query_reads ~warm:spec.warm ~t0
      ~leader:leader0 st evs
  in
  span st "setup" ~ts:0. ~dur:t0 ();
  run_until st c (t0 +. spec.warm);
  let w = wall () -. w0 -. c.ref_wall in
  ((evs, st, leader0, t0, d), w *. Host.nominal /. Metric.median c.refs)

(* A phase sets up [setups] identical deployments, measures the last, and
   reports the median set-up time. *)
let run ?(check = true) ?(setups = 3) spec =
  let horizon = spec.warm +. spec.measure in
  let rec go n times =
    let dep, w = set_up spec in
    if n <= 1 then (dep, Metric.median (w :: times)) else go (n - 1) (w :: times)
  in
  let (evs, st, leader0, t0, d), setup_wall = go setups [] in
  let measure = clock () in
  span st "warm-up" ~ts:t0 ~dur:spec.warm ();
  let m0 = t0 +. spec.warm in
  reset_histograms st.eng;
  let s0 = snapshot st.eng in
  let g0 = Gc.quick_stat () in
  let election_ms = ref None and catchup_ms = ref None in
  let continue_until t = run_until st measure ~stop:(fun () -> d.stop) t in
  (match spec.fault with
  | None -> ()
  | Some f ->
    continue_until (m0 +. f.crash_at);
    let victim = Option.value (Stack.leader st) ~default:leader0 in
    Stack.crash st victim;
    election_ms :=
      poll st measure ~limit:(t0 +. horizon) (fun () ->
          match Stack.leader st with Some l -> l <> victim | None -> false);
    Option.iter
      (fun r ->
        continue_until (m0 +. r);
        Stack.restart st victim;
        let target =
          Option.map (fun l -> R.Server.committed_cut (rex_server st l)) (Stack.leader st)
        in
        catchup_ms :=
          poll st measure ~limit:(t0 +. horizon) (fun () ->
              match target with
              | Some c -> (
                (* The restarted server builds its executor in a fiber. *)
                match R.Server.executed_cut (rex_server st victim) with
                | e -> Trace.Cut.leq c e
                | exception Invalid_argument _ -> false)
              | None -> false))
      f.restart_at);
  continue_until (t0 +. horizon);
  (* The backlog must clear within half a second of the last arrival. *)
  let last = t0 +. evs.(max 0 (d.dispatched - 1)).at in
  let drain_by = Float.max (Engine.clock st.eng) (last +. 0.5) in
  while (not (Drive.drained d)) && Engine.clock st.eng < drain_by do
    pump st measure ~until:(Float.min drain_by (Engine.clock st.eng +. 0.01))
  done;
  let drained_in_time = Drive.drained d in
  let give_up = Engine.clock st.eng +. 60. in
  while (not (Drive.drained d)) && Engine.clock st.eng < give_up do
    pump st measure ~until:(Engine.clock st.eng +. measure.step)
  done;
  let g1 = Gc.quick_stat () in
  let s1 = snapshot st.eng in
  span st "measure" ~ts:m0 ~dur:(Engine.clock st.eng -. m0) ();
  let violations =
    if not (Drive.drained d) then [ "requests still outstanding 60 s after the last arrival" ]
    else if not check then check_accounting d
    else begin
      let settle = clock () in
      let a = check_accounting d in
      let b = await_agreement st settle in
      a @ b @ check_counters st d
    end
  in
  {
    spec;
    st;
    d;
    setup_wall;
    measure_wall = scaled_wall measure ~span:(s1.at -. s0.at);
    minor_words = g1.minor_words -. g0.minor_words -. measure.ref_minor;
    promoted_words = g1.promoted_words -. g0.promoted_words -. measure.ref_promoted;
    s0;
    s1;
    leader0;
    leader1 = Option.value (Stack.leader st) ~default:leader0;
    election_ms = !election_ms;
    catchup_ms = !catchup_ms;
    drained_in_time;
    violations;
  }
