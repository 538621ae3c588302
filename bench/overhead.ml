(* The §6.3 overhead numbers: record overhead on the primary (paper: within
   5% of native), the replay-bound end-to-end gap (up to 25%), causal-edge
   reduction (58–99%), trace bytes per synchronization event (~16 B), and
   the log-size overhead of synchronization events relative to shipped
   client requests (0–70%). *)

open Sim
module R = Rex_core

let threads = 16

(* Measure the PRIMARY's execution rate with secondaries detached from
   flow control, isolating recording overhead from replay speed.  Rates
   here can exceed 1M req/s of virtual time, so measure over a fixed
   virtual-time window rather than a request count. *)
let run_record_only ~factory ~gen ~warmup:_ ~measure:_ =
  let cfg =
    R.Config.make ~workers:threads
      ~flow_window:max_int ~replicas:[ 0; 1; 2 ] ()
  in
  let cluster = R.Cluster.create ~seed:42 ~cores_per_node:16 cfg factory in
  R.Cluster.start cluster;
  let primary = R.Cluster.await_primary cluster in
  let eng = R.Cluster.engine cluster in
  let executed () = (R.Server.stats primary).R.Server.requests_executed in
  let rng = Rng.create 59 in
  (* Top up the run queue on a timer, independent of commit latency: the
     workers must never starve. *)
  ignore
    (Engine.spawn eng ~node:(R.Server.node primary) (fun () ->
         while true do
           while R.Server.queue_length primary < 4096 do
             R.Server.submit primary (gen rng) (fun _ -> ())
           done;
           Engine.sleep 1e-4
         done));
  let warm_window = 5e-3 and window = 20e-3 in
  Engine.run ~until:(Engine.clock eng +. warm_window) eng;
  let t0 = Engine.clock eng and c0 = executed () in
  Engine.run ~until:(t0 +. window) eng;
  float_of_int (executed () - c0) /. (Engine.clock eng -. t0)

let apps_to_measure =
  [
    ( "lockserver",
      (fun () -> Apps.Lock_server.factory ()),
      (fun () -> Workload.Mix.lock_server ~n_files:100_000),
      1000, 6000 );
    ( "leveldb",
      (fun () -> Apps.Leveldb.factory ()),
      (fun () -> Workload.Mix.kv ~read_ratio:0.5 ()),
      4000, 20000 );
    ( "kyoto",
      (fun () -> Apps.Kyoto.factory ()),
      (fun () -> Workload.Mix.kv ~read_ratio:0.5 ()),
      4000, 20000 );
  ]

let run ?(quick = false) () =
  Printf.printf "\n== §6.3 overhead breakdown (16 threads) ==\n";
  Printf.printf
    "app\tnative/s\trecord/s\trec_ovh%%\trex/s\treplay_gap%%\tevents/req\t\
     edges/req\treduced%%\tB/event\tlog_ovh%%\tres_events\tres_edges\n%!";
  List.iter
    (fun (name, factory, gen, warmup, measure) ->
      let warmup = if quick then warmup / 2 else warmup in
      let measure = if quick then measure / 2 else measure in
      let native =
        Harness.run_native ~cores:16 ~threads ~factory:(factory ())
          ~gen:(gen ()) ~warmup ~measure ()
      in
      let record_rate =
        run_record_only ~factory:(factory ()) ~gen:(gen ()) ~warmup ~measure
      in
      let rex =
        Harness.run_rex ~threads ~factory:(factory ()) ~gen:(gen ()) ~warmup
          ~measure ()
      in
      let pct a b = 100. *. (1. -. (a /. b)) in
      let sync_bytes =
        rex.Harness.trace_bytes_per_req -. rex.Harness.request_bytes_per_req
      in
      let bytes_per_event =
        if rex.Harness.events_per_req > 0. then
          sync_bytes /. rex.Harness.events_per_req
        else 0.
      in
      let log_overhead =
        if rex.Harness.request_bytes_per_req > 0. then
          100. *. sync_bytes /. rex.Harness.request_bytes_per_req
        else 0.
      in
      Printf.printf
        "%s\t%.0f\t%.0f\t%.1f\t%.0f\t%.1f\t%.1f\t%.1f\t%.0f\t%.1f\t%.0f\t%d\t\
         %d\n%!"
        name native.Harness.throughput record_rate
        (pct record_rate native.Harness.throughput)
        rex.Harness.throughput
        (pct rex.Harness.throughput record_rate)
        rex.Harness.events_per_req rex.Harness.edges_per_req
        (100. *. rex.Harness.reduced_fraction)
        bytes_per_event log_overhead rex.Harness.resident_events
        rex.Harness.resident_edges)
    apps_to_measure
