(* Rex vs execute-verify (Eve-style): the paper's §5 comparison made
   quantitative.  The Fig. 8 micro-benchmark runs under both frameworks:
   Rex preserves the application's 10%-in-lock granularity, while Eve's
   mixer must treat the whole request as the unit of parallelism — the
   f = 100% configuration — so its throughput collapses with contention
   much earlier.  A second sweep shows the cost of an imperfect mixer
   (missed conflicts → rollback + serial re-execution). *)

open Sim
module R = Rex_core

let threads = 16

let conflict_keys req =
  match Apps.Util.words req with [ "REQ"; i ] -> [ i ] | _ -> []

let run_eve ?(seed = 42) ?(miss_rate = 0.) ~locks ~frac ~warmup ~measure () =
  let replicas = [ 0; 1; 2 ] in
  let cfg = Eve.default_config ~workers:threads ~miss_rate ~replicas () in
  let cluster =
    R.Cluster.create_log ~seed ~cores_per_node:16 ~replicas
      (fun net rpc ~node ~paxos_store ->
        Eve.create net rpc cfg ~node ~paxos_store ~conflict_keys
          (Fig8.micro_factory ~frac ~locks ()))
  in
  R.Cluster.start cluster;
  R.Cluster.run ~until:1.0 cluster;
  let primary = R.Cluster.await_primary cluster in
  let throughput =
    Harness.closed_loop
      (R.Cluster.engine cluster)
      ~node:(R.Cluster.client_node cluster) ~rng:(Rng.create (seed + 13))
      ~submit:(Eve.submit primary)
      ~gen:(fun rng _ -> Fig8.gen ~locks rng)
      ~step:0.25 ~warmup ~measure ()
  in
  (Option.value throughput ~default:0., Eve.stats primary)

let run ?(quick = false) () =
  let warmup = if quick then 30 else 100 in
  let measure = if quick then 100 else 400 in
  Printf.printf
    "\n== Rex vs execute-verify (Eve-style), Fig. 8 micro-benchmark ==\n";
  Printf.printf
    "(10 ms requests, 10%% of compute in a lock for Rex; Eve parallelizes \
     whole requests)\n";
  Printf.printf "contention_p\tnative\tRex\tEve\tEve_avg_batch\n%!";
  List.iter
    (fun p ->
      let locks = max 1 (int_of_float (1. /. p)) in
      let native = Fig8.point ~quick ~mode:Harness.Native ~frac:0.1 ~locks () in
      let rex = Fig8.point ~quick ~mode:Harness.Rex ~frac:0.1 ~locks () in
      let eve_tp, eve_stats = run_eve ~locks ~frac:0.1 ~warmup ~measure () in
      Printf.printf "%g\t%.0f\t%.0f\t%.0f\t%.1f\n%!" p
        native.Harness.throughput rex.Harness.throughput eve_tp
        eve_stats.Eve.avg_batch)
    [ 0.001; 0.01; 0.05; 0.1; 0.2; 0.5 ];
  Printf.printf "\n== Cost of an imperfect mixer (p = 0.1) ==\n";
  Printf.printf "miss_rate\tEve/s\trollbacks\tbatches\n%!";
  List.iter
    (fun miss_rate ->
      let tp, st = run_eve ~miss_rate ~locks:10 ~frac:0.1 ~warmup ~measure () in
      Printf.printf "%.2f\t%.0f\t%d\t%d\n%!" miss_rate tp st.Eve.rollbacks
        st.Eve.batches)
    [ 0.0; 0.1; 0.3; 0.6 ]
