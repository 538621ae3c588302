(* Ablations of the design choices DESIGN.md calls out:
   1. causal-edge reduction on/off (trace size, throughput);
   2. partial-order vs total-order recording for readers-writer locks
      (replay parallelism — paper Fig. 4's motivation);
   3. flow-control window;
   5. pipelining; 6. acceptor fsync cost;
   7. trace compaction: resident trace size stays bounded under a
      checkpointing workload (exits non-zero if it does not, so CI can
      run it as a smoke test with --only compaction). *)

module R = Rex_core

let threads = 16

let kv_gen read_ratio () = Workload.Mix.kv ~read_ratio ()

let rex_with cfg factory gen ~warmup ~measure =
  Harness.run_rex ~threads ~config:cfg ~factory ~gen ~warmup ~measure ()

let scale quick n = if quick then n / 4 else n

let run_reduction ~quick () =
  let warmup = scale quick 1000 and measure = scale quick 4000 in
  Printf.printf "\n== Ablation 1: causal-edge reduction (lock server) ==\n";
  Printf.printf "reduction\tRex/s\tedges/req\ttrace_B/req\n%!";
  List.iter
    (fun reduce ->
      let cfg = Harness.rex_config ~reduce_edges:reduce ~threads () in
      let r =
        rex_with cfg
          (Apps.Lock_server.factory ())
          (Workload.Mix.lock_server ~n_files:100_000)
          ~warmup ~measure
      in
      Printf.printf "%s\t%.0f\t%.1f\t%.0f\n%!"
        (if reduce then "on" else "off")
        r.Harness.throughput r.Harness.edges_per_req r.Harness.trace_bytes_per_req)
    [ true; false ]

let run_partial_order ~quick () =
  let warmup = scale quick 1000 and measure = scale quick 4000 in
  Printf.printf
    "\n== Ablation 2: partial-order vs total-order recording (kyoto, 90%% reads) ==\n";
  Printf.printf "recording\tRex/s\twaited/s\tedges/req\ttrace_B/req\n%!";
  List.iter
    (fun partial ->
      let cfg = Harness.rex_config ~partial_order:partial ~threads () in
      (* Few slices make concurrent reads of one slice common, which is
         exactly where total-order recording destroys replay parallelism
         (Fig. 4). *)
      let r =
        rex_with cfg
          (Apps.Kyoto.factory ~slices:2 ())
          (kv_gen 0.9 ()) ~warmup ~measure
      in
      Printf.printf "%s\t%.0f\t%.0f\t%.1f\t%.0f\n%!"
        (if partial then "partial-order" else "total-order")
        r.Harness.throughput r.Harness.waited_per_sec r.Harness.edges_per_req
        r.Harness.trace_bytes_per_req)
    [ true; false ]

let run_flow ~quick () =
  let warmup = scale quick 1000 and measure = scale quick 4000 in
  Printf.printf "\n== Ablation 3: flow-control window (lock server) ==\n";
  Printf.printf "window(events)\tRex/s\n%!";
  List.iter
    (fun w ->
      let cfg = Harness.rex_config ~flow_window:w ~threads () in
      let r =
        rex_with cfg
          (Apps.Lock_server.factory ())
          (Workload.Mix.lock_server ~n_files:100_000)
          ~warmup ~measure
      in
      Printf.printf "%d\t%.0f\n%!" w r.Harness.throughput)
    [ 500; 2000; 20000; 200000 ]

(* Ablation 5: pipelining (§3.1 piggyback) — one vs several open
   consensus instances, across network latencies.  With one instance,
   reply latency is bounded below by a full commit round per delta;
   pipelining overlaps them. *)
let run_pipeline ~quick () =
  let warmup = if quick then 300 else 1000 in
  let measure = if quick then 1000 else 4000 in
  Printf.printf "\n== Ablation 5: pipeline depth x network latency (lock server) ==\n";
  Printf.printf "net_latency(us)\tdepth\tRex/s\tmean_lat(us)\tp99_lat(us)\n%!";
  List.iter
    (fun net_latency ->
      List.iter
        (fun depth ->
          let cfg =
            R.Config.make ~replicas:[ 0; 1; 2 ] ~workers:threads
             
              ~pipeline_depth:depth ()
          in
          let r =
            Harness.run_rex ~net_latency ~min_window:0.03 ~threads ~config:cfg
              ~factory:(Apps.Lock_server.factory ())
              ~gen:(Workload.Mix.lock_server ~n_files:100_000)
              ~warmup ~measure ()
          in
          Printf.printf "%.0f\t%d\t%.0f\t%.0f\t%.0f\n%!" (net_latency *. 1e6)
            depth r.Harness.throughput
            (r.Harness.mean_latency *. 1e6)
            (r.Harness.p99_latency *. 1e6))
        [ 1; 4 ])
    [ 50e-6; 500e-6; 2e-3 ]

(* Ablation 6: acceptor stable storage — a real Paxos must fsync its
   promises and accepts; batching amortizes the cost, pipelining hides
   part of the latency. *)
let run_sync_latency ~quick () =
  let warmup = if quick then 300 else 1000 in
  let measure = if quick then 1000 else 4000 in
  Printf.printf "\n== Ablation 6: acceptor fsync cost (lock server) ==\n";
  Printf.printf "fsync(us)\tdepth\tRex/s\tmean_lat(us)\n%!";
  List.iter
    (fun sync ->
      List.iter
        (fun depth ->
          let cfg =
            R.Config.make ~replicas:[ 0; 1; 2 ] ~workers:threads
             
              ~pipeline_depth:depth ~paxos_sync_latency:sync ()
          in
          let r =
            Harness.run_rex ~min_window:0.03 ~threads ~config:cfg
              ~factory:(Apps.Lock_server.factory ())
              ~gen:(Workload.Mix.lock_server ~n_files:100_000)
              ~warmup ~measure ()
          in
          Printf.printf "%.0f\t%d\t%.0f\t%.0f\n%!" (sync *. 1e6) depth
            r.Harness.throughput
            (r.Harness.mean_latency *. 1e6))
        [ 1; 4 ])
    [ 0.; 100e-6; 1e-3 ]

(* Ablation 7: trace compaction under periodic checkpointing.  Runs a
   lock-server cluster long enough for many checkpoints, sampling each
   node's resident trace every interval.  Without in-place compaction
   resident events grow linearly with recorded events; with it they
   plateau at O(window between checkpoints).  Fails the process when the
   resident peak is not clearly separated from the cumulative total, so
   this doubles as the CI memory-bound smoke test. *)
let run_compaction ~quick () =
  Printf.printf "\n== Ablation 7: trace compaction (lock server, periodic checkpoints) ==\n";
  let cfg =
    R.Config.make ~replicas:[ 0; 1; 2 ] ~workers:8
      ~checkpoint_interval:(Some (if quick then 0.02 else 0.05))
      ()
  in
  let cluster =
    R.Cluster.launch ~seed:7 ~cores_per_node:16 cfg (Apps.Lock_server.factory ())
  in
  let primary = R.Cluster.await_primary cluster in
  let eng = R.Cluster.engine cluster in
  let gen = Workload.Mix.lock_server ~n_files:100_000 in
  let rng = Sim.Rng.create 59 in
  ignore
    (Sim.Engine.spawn eng ~node:(R.Server.node primary) (fun () ->
         while true do
           while R.Server.queue_length primary < 1024 do
             R.Server.submit primary (gen rng) (fun _ -> ())
           done;
           Sim.Engine.sleep 1e-4
         done));
  Printf.printf "t(s)\tres_events\tres_edges\tincoming\tcompactions\trecorded_total\n%!";
  let rounds = if quick then 12 else 24 in
  let step = if quick then 0.025 else 0.05 in
  let peak = ref 0 in
  for _ = 1 to rounds do
    Sim.Engine.run ~until:(Sim.Engine.clock eng +. step) eng;
    let rt = R.Server.runtime primary in
    let tr = Rexsync.Runtime.trace rt in
    peak := max !peak (Trace.event_count tr);
    Printf.printf "%.3f\t%d\t%d\t%d\t%d\t%d\n%!" (Sim.Engine.clock eng)
      (Trace.event_count tr) (Trace.edge_count tr)
      (Trace.incoming_entries tr) (Trace.compactions tr)
      (Rexsync.Runtime.stats rt).Rexsync.Runtime.events_recorded
  done;
  let rt = R.Server.runtime primary in
  let tr = Rexsync.Runtime.trace rt in
  let total = (Rexsync.Runtime.stats rt).Rexsync.Runtime.events_recorded in
  let compactions = Trace.compactions tr in
  Printf.printf "peak resident %d of %d recorded, %d compactions\n%!" !peak
    total compactions;
  if compactions = 0 then Harness.fail "FAIL: no trace compaction happened";
  if 2 * !peak >= total then
    Harness.fail "FAIL: resident trace not bounded (peak %d vs %d recorded)"
      !peak total;
  Printf.printf "OK: resident trace bounded by checkpoint window\n%!"

let sections ~quick =
  [
    ("reduction", run_reduction ~quick);
    ("partial-order", run_partial_order ~quick);
    ("flow", run_flow ~quick);
    ("pipeline", run_pipeline ~quick);
    ("fsync", run_sync_latency ~quick);
    ("compaction", run_compaction ~quick);
  ]

let section_names = List.map fst (sections ~quick:false)
(* the CLI validates --only against this list at parse time *)

let run ?(quick = false) ?only () =
  let secs = sections ~quick in
  match only with
  | None -> List.iter (fun (_, f) -> f ()) secs
  | Some name -> (
    match List.assoc_opt name secs with
    | Some f -> f ()
    | None ->
      Printf.printf "unknown ablation %S; available: %s\n%!" name
        (String.concat ", " (List.map fst secs));
      exit 2)
