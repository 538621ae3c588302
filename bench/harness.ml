(* Shared benchmark machinery: run one experiment point in one of three
   modes (native single machine, Rex replication, standard RSM) and
   measure steady-state throughput over a request-count window, plus the
   paper's auxiliary metrics (waited events, trace bytes, edge counts). *)

open Sim
module R = Rex_core

exception Failed of string
(* A smoke assertion inside a bench failed.  Raised (not [exit 1]) so the
   same assertions run under `dune runtest` as tier-1 tests; the CLI
   entry point catches it and exits non-zero. *)

let fail fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt

type mode = Native | Rex | Rsm

let mode_name = function Native -> "native" | Rex -> "Rex" | Rsm -> "RSM"

(* --- Metrics / trace export sinks (--metrics-out / --trace-out) ---

   Every run_* call builds a fresh Engine, so the registry is per-run;
   we snapshot each run's metrics into a JSON document and write them
   all out as one array when the subcommand finishes.  The trace file
   holds the span stream of the most recent traced run (a whole
   subcommand's worth of runs in one Chrome timeline would overlap). *)

let metrics_path : string option ref = ref None
let trace_path : string option ref = ref None
let timeline_path : string option ref = ref None
let run_docs : string list ref = ref []
let last_trace : Obs.Span.collector option ref = ref None

(* Like the trace sink, the timeline CSV holds the most recent run that
   armed one: each run_* (and the liveops bench) calls [arm_timeline]
   and records completions into the handle it gets back. *)
let timeline_sink : Obs.Timeline.t option ref = ref None

let set_outputs ~metrics ~trace ~timeline =
  metrics_path := metrics;
  trace_path := trace;
  timeline_path := timeline;
  run_docs := [];
  last_trace := None;
  timeline_sink := None

let tracing_requested () = !trace_path <> None

let arm_timeline ?bucket () =
  match !timeline_path with
  | None -> None
  | Some _ ->
    let tl = Obs.Timeline.create ?bucket () in
    timeline_sink := Some tl;
    Some tl

let tl_record tl ?latency now =
  Option.iter (fun tl -> Obs.Timeline.record tl ?latency now) tl

(* Enable span collection on a fresh engine when --trace-out was given. *)
let arm_tracing eng =
  if tracing_requested () then Obs.enable_tracing (Engine.obs eng) true

(* Generalized over (obs, time) so the domains backend — which has no
   engine, only a wall clock — can export runs through the same sink. *)
let note_run_obs ~label ~time obs =
  if !metrics_path <> None then
    run_docs :=
      Printf.sprintf "{\"run\":%S,\"time\":%.9g,\"metrics\":%s}" label time
        (Obs.Export.metrics_json (Obs.registry obs))
      :: !run_docs;
  if Obs.tracing obs && Obs.Span.length (Obs.spans obs) > 0 then
    last_trace := Some (Obs.spans obs)

let note_run ~label eng =
  note_run_obs ~label ~time:(Engine.clock eng) (Engine.obs eng)

let flush_outputs () =
  (match !metrics_path with
  | None -> ()
  | Some path ->
    Obs.Export.to_file ~path
      ("[\n" ^ String.concat ",\n" (List.rev !run_docs) ^ "\n]\n"));
  (match (!trace_path, !last_trace) with
  | Some path, Some col ->
    Obs.Export.to_file ~path (Obs.Export.chrome_trace col)
  | Some path, None ->
    (* No traced run happened: still emit a valid (empty) trace file. *)
    Obs.Export.to_file ~path "{\"traceEvents\":[]}\n"
  | None, _ -> ());
  match !timeline_path with
  | None -> ()
  | Some path ->
    (* Header-only when no run recorded samples: still a valid CSV. *)
    let body =
      match !timeline_sink with
      | Some tl -> Obs.Timeline.to_csv tl
      | None -> Obs.Timeline.csv_header ^ "\n"
    in
    Obs.Export.to_file ~path body

type result = {
  mode : mode;
  threads : int;
  throughput : float;  (* requests committed (or executed) per second *)
  waited_per_sec : float;  (* secondary replay waits per second (Fig. 7) *)
  events_per_req : float;  (* recorded sync events per request *)
  edges_per_req : float;
  reduced_fraction : float;  (* edges removed by §4.2 reduction *)
  trace_bytes_per_req : float;  (* consensus payload per request *)
  request_bytes_per_req : float;  (* client payload inside those bytes *)
  mean_latency : float;  (* submit -> committed reply, seconds *)
  p99_latency : float;
  resident_events : int;  (* events held in the primary's trace at the end *)
  resident_edges : int;
  compactions : int;  (* times the primary's trace was compacted *)
}

let zero_result mode threads =
  {
    mode;
    threads;
    throughput = 0.;
    waited_per_sec = 0.;
    events_per_req = 0.;
    edges_per_req = 0.;
    reduced_fraction = 0.;
    trace_bytes_per_req = 0.;
    request_bytes_per_req = 0.;
    mean_latency = 0.;
    p99_latency = 0.;
    resident_events = 0;
    resident_edges = 0;
    compactions = 0;
  }

(* Pump the engine [step] at a time until [done_p] or the virtual
   deadline; returns false on timeout. *)
let pump ?(step = 0.2) eng ~done_p ~virtual_deadline =
  let rec go () =
    Engine.run ~until:(Engine.clock eng +. step) eng;
    if done_p () then true
    else if Engine.clock eng > virtual_deadline then false
    else go ()
  in
  go ()

(* --- Native: the unreplicated multi-threaded application. --- *)

let run_native ?(seed = 42) ~cores ~threads ~factory ~gen ~warmup ~measure () =
  let eng = Engine.create ~seed ~cores_per_node:cores ~num_nodes:1 () in
  arm_tracing eng;
  let tl = arm_timeline () in
  let rt = Rexsync.Runtime.create (Par.Backend.of_sim eng) ~node:0 ~slots:1 in
  let api = R.Api.make rt in
  let app : R.App.t = factory api in
  let timers = R.Api.seal api in
  List.iter
    (fun (spec : R.Api.timer_spec) ->
      ignore
        (Engine.spawn eng ~node:0 ~name:spec.t_name (fun () ->
             while true do
               Engine.sleep spec.t_interval;
               spec.t_callback ()
             done)))
    timers;
  let total = warmup + measure in
  let completed = ref 0 in
  let t_warm = ref 0. and t_end = ref 0. in
  let note_completion () =
    incr completed;
    tl_record tl (Engine.now ());
    if !completed = warmup then t_warm := Engine.now ();
    if !completed = total then t_end := Engine.now ()
  in
  let stop = ref false in
  for w = 0 to threads - 1 do
    ignore
      (Engine.spawn eng ~node:0
         ~name:(Printf.sprintf "native-worker%d" w)
         (fun () ->
           let rng = Rng.create (seed + (w * 7919)) in
           while not !stop do
             ignore (app.R.App.execute ~request:(gen rng));
             note_completion ()
           done))
  done;
  let ok = pump eng ~done_p:(fun () -> !completed >= total) ~virtual_deadline:3600. in
  stop := true;
  note_run ~label:(Printf.sprintf "native-t%d" threads) eng;
  if not ok then zero_result Native threads
  else
    {
      (zero_result Native threads) with
      throughput = float_of_int measure /. (!t_end -. !t_warm);
    }

(* --- Rex: 3-replica cluster, measuring committed replies. --- *)

let rex_config ?checkpoint_interval ?reduce_edges ?partial_order ?flow_window
    ~threads () =
  R.Config.make ~replicas:[ 0; 1; 2 ] ~workers:threads ~propose_interval:2e-4
    ?checkpoint_interval ?reduce_edges ?partial_order ?flow_window ()

let run_rex ?(seed = 42) ?(cores = 16) ?net_latency ?(min_window = 0.)
    ?agreement ?config ~threads ~factory ~gen ~warmup ~measure () =
  let cfg =
    match config with Some c -> c | None -> rex_config ~threads ()
  in
  let cluster =
    R.Cluster.launch ~seed ~cores_per_node:cores ?net_latency ?agreement
      ~before_start:(fun c -> arm_tracing (R.Cluster.engine c))
      cfg factory
  in
  let eng = R.Cluster.engine cluster in
  let tl = arm_timeline () in
  let primary = R.Cluster.await_primary cluster in
  let secondary =
    Array.to_list (R.Cluster.servers cluster)
    |> List.find (fun s -> R.Server.node s <> R.Server.node primary)
  in
  let total = warmup + measure in
  let completed = ref 0 in
  let t_warm = ref 0. and t_end = ref 0. in
  let warm_sec_stats = ref (R.Server.runtime_stats secondary) in
  let warm_primary_stats = ref (R.Server.stats primary) in
  let warm_primary_rt = ref (R.Server.runtime_stats primary) in
  let launched = ref 0 in
  let rng = Rng.create (seed + 17) in
  (* Open-loop-ish driving: keep enough requests outstanding that the
     commit latency never starves the workers (the paper uses "enough
     clients submitting requests so that the machines are fully
     loaded"). *)
  let window = max 512 (64 * threads) in
  (* With a minimum time window the driver must keep the pipeline full
     past [total]. *)
  let launch_cap = if min_window > 0. then max_int else total + window in
  let latencies = ref [] in
  let rec submit_one () =
    if !launched < launch_cap then begin
      incr launched;
      let submitted_at = Engine.clock eng in
      R.Server.submit primary (gen rng) (fun _ ->
          incr completed;
          tl_record tl
            ~latency:(Engine.clock eng -. submitted_at)
            (Engine.clock eng);
          if !completed > warmup && !completed <= total then
            latencies := (Engine.clock eng -. submitted_at) :: !latencies;
          if !completed = warmup then begin
            t_warm := Engine.clock eng;
            warm_sec_stats := R.Server.runtime_stats secondary;
            warm_primary_stats := R.Server.stats primary;
            warm_primary_rt := R.Server.runtime_stats primary
          end;
          if !completed = total then t_end := Engine.clock eng;
          submit_one ())
    end
  in
  ignore
    (Engine.spawn eng ~node:(R.Server.node primary) (fun () ->
         for _ = 1 to window do
           submit_one ()
         done));
  (* Replies release in per-commit batches; when they are coarser than the
     request-count window, measure over a fixed time window instead. *)
  let ok, dt, windowed_replies =
    if min_window > 0. then begin
      let ok =
        pump eng ~done_p:(fun () -> !completed >= warmup) ~virtual_deadline:3600.
      in
      if not ok then (false, 0., 0)
      else begin
        let t0 = Engine.clock eng in
        let r0 = (R.Server.stats primary).R.Server.replies_sent in
        warm_sec_stats := R.Server.runtime_stats secondary;
        warm_primary_stats := R.Server.stats primary;
        warm_primary_rt := R.Server.runtime_stats primary;
        t_warm := t0;
        Engine.run ~until:(t0 +. min_window) eng;
        let dt = Engine.clock eng -. t0 in
        (dt > 0., dt, (R.Server.stats primary).R.Server.replies_sent - r0)
      end
    end
    else begin
      let ok =
        pump eng ~done_p:(fun () -> !completed >= total) ~virtual_deadline:3600.
      in
      (ok, !t_end -. !t_warm, 0)
    end
  in
  note_run ~label:(Printf.sprintf "rex-t%d" threads) eng;
  if not ok then zero_result Rex threads
  else begin
    let sec_stats = R.Server.runtime_stats secondary in
    let pri_stats = R.Server.stats primary in
    let pri_rt = R.Server.runtime_stats primary in
    let d_waited =
      sec_stats.Rexsync.Runtime.waited_events
      - !warm_sec_stats.Rexsync.Runtime.waited_events
    in
    let d_replies =
      pri_stats.R.Server.replies_sent - !warm_primary_stats.R.Server.replies_sent
    in
    let d_bytes =
      pri_stats.R.Server.proposal_bytes
      - !warm_primary_stats.R.Server.proposal_bytes
    in
    let d_req_bytes =
      pri_stats.R.Server.request_payload_bytes
      - !warm_primary_stats.R.Server.request_payload_bytes
    in
    let per_req n = float_of_int n /. float_of_int (max 1 d_replies) in
    let d_events =
      pri_rt.Rexsync.Runtime.events_recorded
      - !warm_primary_rt.Rexsync.Runtime.events_recorded
    in
    let d_edges =
      pri_rt.Rexsync.Runtime.edges_recorded
      - !warm_primary_rt.Rexsync.Runtime.edges_recorded
    in
    let d_reduced =
      pri_rt.Rexsync.Runtime.edges_reduced
      - !warm_primary_rt.Rexsync.Runtime.edges_reduced
    in
    let reduced =
      if d_edges + d_reduced = 0 then 0.
      else float_of_int d_reduced /. float_of_int (d_edges + d_reduced)
    in
    let lat = Array.of_list !latencies in
    Array.sort compare lat;
    let mean_latency =
      if Array.length lat = 0 then 0.
      else Array.fold_left ( +. ) 0. lat /. float_of_int (Array.length lat)
    in
    let p99_latency =
      if Array.length lat = 0 then 0.
      else lat.(min (Array.length lat - 1) (Array.length lat * 99 / 100))
    in
    let primary_trace = Rexsync.Runtime.trace (R.Server.runtime primary) in
    {
      mode = Rex;
      threads;
      throughput =
        (if min_window > 0. then float_of_int windowed_replies /. dt
         else float_of_int measure /. dt);
      mean_latency;
      p99_latency;
      resident_events = Trace.event_count primary_trace;
      resident_edges = Trace.edge_count primary_trace;
      compactions = Trace.compactions primary_trace;
      waited_per_sec = float_of_int d_waited /. dt;
      events_per_req = per_req d_events;
      edges_per_req = per_req d_edges;
      reduced_fraction = reduced;
      trace_bytes_per_req = per_req d_bytes;
      request_bytes_per_req = per_req d_req_bytes;
    }
  end

(* --- RSM: same Paxos, sequential execution. --- *)

(* Closed-loop driving of a log-order leader: a fiber on [node] keeps
   [outstanding] requests in flight through [submit], each completion
   launching the next ([gen rng i] makes request [i]), and the engine is
   pumped [step] at a time until [warmup + measure] have completed.
   The stop time matters to callers that read counters afterwards.
   [on_reply] sees every reply.  Returns the measure window's throughput
   in requests per virtual second, [None] if the run did not finish
   within an hour of virtual time. *)
let outstanding = 512

let closed_loop eng ~node ~rng ~submit ~gen ?(on_reply = ignore) ?step
    ~warmup ~measure () =
  let total = warmup + measure in
  let completed = ref 0 and launched = ref 0 in
  let t_warm = ref 0. and t_end = ref 0. in
  let rec submit_one () =
    if !launched < total + outstanding then begin
      let i = !launched in
      incr launched;
      submit (gen rng i) (fun resp ->
          incr completed;
          on_reply resp;
          if !completed = warmup then t_warm := Engine.clock eng;
          if !completed = total then t_end := Engine.clock eng;
          submit_one ())
    end
  in
  ignore
    (Engine.spawn eng ~node (fun () ->
         for _ = 1 to outstanding do
           submit_one ()
         done));
  if
    pump ?step eng
      ~done_p:(fun () -> !completed >= total)
      ~virtual_deadline:(Engine.clock eng +. 3600.)
  then Some (float_of_int measure /. (!t_end -. !t_warm))
  else None

let run_rsm ?(seed = 42) ?(cores = 16) ~factory ~gen ~warmup ~measure () =
  let replicas = [ 0; 1; 2 ] in
  let cfg = R.Config.make ~propose_interval:2e-4 ~replicas () in
  let cluster =
    R.Log_cluster.create ~seed ~cores_per_node:cores ~replicas
      (fun net rpc ~node ~paxos_store ->
        Smr.create net rpc cfg ~node ~paxos_store factory)
  in
  let eng = R.Log_cluster.engine cluster in
  arm_tracing eng;
  let tl = arm_timeline () in
  R.Log_cluster.start cluster;
  let primary = R.Log_cluster.await_primary ~fallback:5.0 cluster in
  let throughput =
    closed_loop eng ~node:(Smr.node primary) ~rng:(Rng.create (seed + 17))
      ~submit:(Smr.submit primary)
      ~gen:(fun rng _ -> gen rng)
      ~on_reply:(fun _ -> tl_record tl (Engine.clock eng))
      ~warmup ~measure ()
  in
  note_run ~label:"rsm" eng;
  match throughput with
  | None -> zero_result Rsm 1
  | Some throughput -> { (zero_result Rsm 1) with throughput }

(* --- Pretty-printing helpers --- *)

let print_header title columns =
  Printf.printf "\n== %s ==\n" title;
  Printf.printf "%s\n" (String.concat "\t" columns)

let fmt_rate r = Printf.sprintf "%.0f" r
