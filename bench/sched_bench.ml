(* `sched`: the conflict-aware parallel SMR stacks (lib/sched) measured
   against Rex's trace-replay on identical request mixes.

   Sim sweep (replicated, virtual time): a kv workload with a tunable
   conflict rate — fraction of writes hitting one shared hot key, the
   rest hitting per-request unique keys, plus a thin MGET slice that
   spans two keys (multi-class requests: DAG fan-in for cbase, worker
   rendezvous for early) — runs closed-loop against three-replica
   cbase, early and Rex clusters built from the same seed and paced by
   the same propose interval.  Every point cross-checks replica
   convergence, and the final kv digests must agree across all three
   stacks (same log prefix, conflict-equivalent execution).  The smoke
   assertion is the ISSUE's acceptance bar: on the zero-conflict mix,
   cbase — which skips all record/replay work — must not lose to Rex.

   Domains sweep (execution stage, wall clock): the same mix feeds
   Sched.Exec directly on real OCaml 5 domains, mode x workers x
   conflict rate, with the final state digest checked against a serial
   replay.

   Sharded smoke: a 2-group fleet on one engine — group 0 runs cbase,
   group 1 early — behind Shard.Router; writes and lease reads route by
   key, groups must converge internally. *)

open Sim
module R = Rex_core

(* --- workload ---------------------------------------------------- *)

let mget_slice = 0.05

let gen rng ~conflict_rate i =
  let r = Rng.float rng 1.0 in
  if r < conflict_rate then Printf.sprintf "SET hot v%d" i
  else if r < conflict_rate +. mget_slice && i > 0 then
    Printf.sprintf "MGET u%d u%d" (Rng.int rng i) (Rng.int rng i)
  else Printf.sprintf "SET u%d v%d" i i

(* --- sim: replicated closed-loop throughput ----------------------- *)

(* The propose interval is dropped well below the 1 ms default so the
   sweep measures the execution stage, not the batcher's pacing: at
   1 ms a 64-request batch caps every stack at the same agreement rate
   and the worker axis goes flat. *)
let propose_interval = 1e-4

type rrun = {
  eng : Engine.t;
  submit : string -> (string option -> unit) -> unit;
  digests : unit -> string list;
  extras : unit -> string;
}

let make_sched ~seed ~mode ~workers () =
  let replicas = [ 0; 1; 2 ] in
  let cfg = R.Config.make ~workers ~propose_interval ~replicas () in
  let cluster =
    R.Log_cluster.create ~seed ~cores_per_node:16 ~replicas
      (fun net rpc ~node ~paxos_store ->
        Sched.Server.create net rpc cfg ~node ~paxos_store ~mode
          ~conflict:Sched.Conflict.kv (Apps.Kyoto.factory ()))
  in
  R.Log_cluster.start cluster;
  let primary = R.Log_cluster.await_primary ~fallback:5.0 cluster in
  {
    eng = R.Log_cluster.engine cluster;
    submit = Sched.Server.submit primary;
    digests =
      (fun () ->
        Array.to_list (R.Log_cluster.servers cluster)
        |> List.map Sched.Server.app_digest);
    extras =
      (fun () ->
        let s = Sched.Exec.stats (Sched.Server.exec primary) in
        Printf.sprintf "graph<=%d ready<=%d stalls=%d" s.Sched.Exec.graph_max
          s.Sched.Exec.ready_max s.Sched.Exec.barrier_stalls);
  }

let make_rex ~seed ~workers () =
  let ccfg =
    R.Config.make ~replicas:[ 0; 1; 2 ] ~workers ~propose_interval ()
  in
  let cluster =
    R.Cluster.create ~seed ~cores_per_node:16 ccfg (Apps.Kyoto.factory ())
  in
  R.Cluster.start cluster;
  let primary = R.Cluster.await_primary cluster in
  {
    eng = R.Cluster.engine cluster;
    submit = R.Server.submit primary;
    digests =
      (fun () ->
        R.Cluster.servers cluster |> Array.to_list
        |> List.map R.Server.app_digest);
    extras = (fun () -> "");
  }

(* Drive [warmup + measure] requests closed-loop and report the
   measure window's throughput in requests per virtual second; then let
   the followers drain and return the converged digest. *)
let closed_loop run ~seed ~conflict_rate ~warmup ~measure ~label =
  let eng = run.eng in
  let failed = ref 0 in
  let throughput =
    match
      Harness.closed_loop eng ~node:3 ~rng:(Rng.create (seed + 17))
        ~submit:run.submit
        ~gen:(fun rng i -> gen rng ~conflict_rate i)
        ~on_reply:(fun resp -> if resp = None then incr failed)
        ~warmup ~measure ()
    with
    | Some tp -> tp
    | None -> Harness.fail "sched %s: run did not finish" label
  in
  if !failed > 0 then
    Harness.fail "sched %s: %d submissions failed (leader lost?)" label
      !failed;
  (* Drain followers to the same log prefix before comparing digests. *)
  let digest = ref [] and deadline = Engine.clock eng +. 5. in
  let converged () =
    digest := run.digests ();
    match !digest with [] -> false | d :: rest -> List.for_all (( = ) d) rest
  in
  while (not (converged ())) && Engine.clock eng < deadline do
    Engine.run ~until:(Engine.clock eng +. 0.05) eng
  done;
  if not (converged ()) then
    Harness.fail "sched %s: replicas did not converge" label;
  Harness.note_run ~label eng;
  (throughput, List.hd !digest, run.extras ())

let sim_sweep ~quick ~workers_list ~rates () =
  let warmup = if quick then 100 else 300 in
  let measure = if quick then 400 else 1500 in
  let seed = 42 in
  Printf.printf
    "\n== sched (sim): conflict rate x workers x stack, kv closed-loop ==\n";
  Printf.printf
    "(3 replicas, kyoto, %d+%d reqs, %d outstanding, propose %gus; \
     req/virtual-second)\n"
    warmup measure Harness.outstanding (propose_interval *. 1e6);
  Printf.printf "conflict\tworkers\tcbase\tearly\trex\tcbase_extras\n%!";
  List.iter
    (fun conflict_rate ->
      List.iter
        (fun workers ->
          let point stack make =
            let label =
              Printf.sprintf "sched-sim-%s-c%g-w%d" stack conflict_rate
                workers
            in
            closed_loop (make ()) ~seed ~conflict_rate ~warmup ~measure
              ~label
          in
          let cb_tp, cb_dig, cb_x =
            point "cbase" (make_sched ~seed ~mode:Sched.Exec.Cbase ~workers)
          in
          let ea_tp, ea_dig, _ =
            point "early" (make_sched ~seed ~mode:Sched.Exec.Early ~workers)
          in
          let rx_tp, rx_dig, _ = point "rex" (make_rex ~seed ~workers) in
          (* Same seed => same request stream.  cbase and early both
             execute conflicting writes in log order, so their final
             states must match at every conflict rate.  Rex is
             execute-agree: the canonical order of hot-key writes is
             the primary's lock-acquisition order, not the log order,
             so its final hot value may legitimately differ — compare
             against Rex only on the commutative zero-conflict mix. *)
          if cb_dig <> ea_dig then
            Harness.fail
              "sched sim c=%g w=%d: cbase and early diverged (%s / %s)"
              conflict_rate workers cb_dig ea_dig;
          if conflict_rate = 0. && cb_dig <> rx_dig then
            Harness.fail
              "sched sim w=%d: sched stacks diverged from Rex on the \
               zero-conflict mix (%s / %s)"
              workers cb_dig rx_dig;
          if conflict_rate = 0. && cb_tp < 0.95 *. rx_tp then
            Harness.fail
              "sched sim w=%d: cbase (%.0f/s) lost to Rex (%.0f/s) on the \
               zero-conflict mix"
              workers cb_tp rx_tp;
          Printf.printf "%g\t%d\t%.0f\t%.0f\t%.0f\t%s\n%!" conflict_rate
            workers cb_tp ea_tp rx_tp cb_x)
        workers_list)
    rates

(* --- domains: execution stage on real cores ----------------------- *)

(* A sliced kv store over backend-native locks (unbound fibers take the
   native path), [op_cost] seconds of Engine.work per op — the app body
   both backends of the Exec digest tests share, here timed for real. *)
let domains_op_cost = 20e-6
let n_slices = 256

let make_kv backend =
  let rt = Rexsync.Runtime.create backend ~node:0 ~slots:1 in
  let locks =
    Array.init n_slices (fun i ->
        Rexsync.Lock.create rt (Printf.sprintf "slice%d" i))
  in
  let tables : (string, string) Hashtbl.t array =
    Array.init n_slices (fun _ -> Hashtbl.create 64)
  in
  let slice k = Hashtbl.hash k mod n_slices in
  let get k =
    let i = slice k in
    Rexsync.Lock.with_lock locks.(i) (fun () ->
        Engine.work domains_op_cost;
        Option.value (Hashtbl.find_opt tables.(i) k) ~default:"NOTFOUND")
  in
  let execute req =
    match Apps.Util.words req with
    | [ "SET"; k; v ] ->
      let i = slice k in
      Rexsync.Lock.with_lock locks.(i) (fun () ->
          Engine.work domains_op_cost;
          Hashtbl.replace tables.(i) k v);
      "OK"
    | [ "GET"; k ] -> get k
    | "MGET" :: keys -> String.concat "," (List.map get keys)
    | _ -> "ERR:bad-request"
  in
  let digest () =
    Array.to_list tables
    |> List.concat_map (fun t ->
           Hashtbl.fold (fun k v acc -> (k, v) :: acc) t [])
    |> List.sort compare |> Hashtbl.hash |> string_of_int
  in
  (execute, digest)

(* Serial replay of the same stream on plain state: the reference
   digest every parallel run must reproduce. *)
let serial_digest reqs =
  let t = Hashtbl.create 1024 in
  Array.iter
    (fun req ->
      match Apps.Util.words req with
      | [ "SET"; k; v ] -> Hashtbl.replace t k v
      | _ -> ())
    reqs;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t []
  |> List.sort compare |> Hashtbl.hash |> string_of_int

let domains_point ~seed ~mode ~workers ~conflict_rate ~ops ~label () =
  let cores = Domain.recommended_domain_count () in
  let d = Par.Domains.create ~seed ~domains:(min workers cores) () in
  let backend = Par.Domains.backend d in
  let execute, digest = make_kv backend in
  let exec =
    Sched.Exec.create backend ~node:0 ~mode ~workers
      ~conflict:Sched.Conflict.kv ~execute
  in
  let rng = Rng.create (seed + 17) in
  let reqs = Array.init ops (fun i -> gen rng ~conflict_rate i) in
  let t0 = Par.Domains.now d in
  Par.Domains.spawn d ~node:0 ~name:"sched.driver" (fun () ->
      Array.iter (fun req -> Sched.Exec.admit exec req ignore) reqs;
      Sched.Exec.drain exec;
      Sched.Exec.shutdown exec);
  Par.Domains.join d;
  let dt = Par.Domains.now d -. t0 in
  let stats = Sched.Exec.stats exec in
  Harness.note_run_obs ~label ~time:(Par.Domains.now d) (Par.Domains.obs d);
  Par.Domains.shutdown d;
  if stats.Sched.Exec.executed <> ops then
    Harness.fail "sched %s: executed %d of %d" label
      stats.Sched.Exec.executed ops;
  if digest () <> serial_digest reqs then
    Harness.fail "sched %s: parallel state diverged from serial replay"
      label;
  (float_of_int ops /. dt, stats)

let domains_sweep ~quick ~workers_list ~rates () =
  let cores = Domain.recommended_domain_count () in
  let ops = if quick then 600 else 2000 in
  Printf.printf
    "\n== sched (domains): execution stage on real cores, wall clock ==\n";
  Printf.printf
    "(machine: %d hw cores; %d ops, %.0f us/op; digest checked against \
     serial replay)\n"
    cores ops (domains_op_cost *. 1e6);
  Printf.printf "conflict\tworkers\tcbase\tearly\tstalls\tgraph<=\n%!";
  List.iter
    (fun conflict_rate ->
      List.iter
        (fun workers ->
          let cb_tp, cb_st =
            domains_point ~seed:42 ~mode:Sched.Exec.Cbase ~workers
              ~conflict_rate ~ops
              ~label:
                (Printf.sprintf "sched-dom-cbase-c%g-w%d" conflict_rate
                   workers)
              ()
          in
          let ea_tp, ea_st =
            domains_point ~seed:42 ~mode:Sched.Exec.Early ~workers
              ~conflict_rate ~ops
              ~label:
                (Printf.sprintf "sched-dom-early-c%g-w%d" conflict_rate
                   workers)
              ()
          in
          Printf.printf "%g\t%d\t%s\t%s\t%d\t%d\n%!" conflict_rate workers
            (Par_bench.fmt_units cb_tp) (Par_bench.fmt_units ea_tp)
            ea_st.Sched.Exec.barrier_stalls cb_st.Sched.Exec.graph_max)
        workers_list)
    rates

(* --- sharded fleet running a sched stack per group ----------------- *)

let sharded_smoke ~quick () =
  let seed = 42 in
  let n = if quick then 60 else 150 in
  Printf.printf
    "\n== sched (sharded): 2 groups behind Shard.Router — group 0 cbase, \
     group 1 early ==\n%!";
  let eng = Engine.create ~seed ~cores_per_node:8 ~num_nodes:7 () in
  let net = Net.create eng in
  let rpc = Rpc.create net in
  let map = Shard.Shard_map.create ~groups:[ 0; 1 ] () in
  let groups = [ (0, [ 0; 1; 2 ]); (1, [ 3; 4; 5 ]) ] in
  let make_group (group, replicas) =
    let cfg = R.Config.make ~workers:4 ~replicas () in
    let mode =
      if group = 0 then Sched.Exec.Cbase else Sched.Exec.Early
    in
    ( group,
      R.Log_cluster.create_in net rpc ~client_node:6 ~replicas
        (fun net rpc ~node ~paxos_store ->
          Sched.Server.create net rpc cfg ~node ~paxos_store ~mode
            ~conflict:Sched.Conflict.kv
            (Shard.Partition.factory ~map ~group (Apps.Kyoto.factory ()))) )
  in
  let fleet = List.map make_group groups in
  List.iter (fun (_, c) -> R.Log_cluster.start c) fleet;
  (try
     List.iter
       (fun (_, c) -> ignore (R.Log_cluster.await_primary ~fallback:5.0 c))
       fleet
   with Failure _ -> Harness.fail "sched shard: no leaders elected");
  let router = Shard.Router.create net rpc ~me:6 ~map ~groups in
  let ok_writes = ref 0 and ok_reads = ref 0 and finished = ref false in
  ignore
    (Engine.spawn eng ~node:6 ~name:"sched.shard.client" (fun () ->
         for i = 0 to n - 1 do
           let key = Printf.sprintf "s%d" i in
           match
             Shard.Router.call router ~key
               (Printf.sprintf "SET %s v%d" key i)
           with
           | Some "OK" -> incr ok_writes
           | Some _ | None -> ()
         done;
         (* lease reads through the sched read path (parked behind any
            in-flight conflicting write) *)
         for i = 0 to (n / 4) - 1 do
           let key = Printf.sprintf "s%d" i in
           match
             Shard.Router.query router ~key (Printf.sprintf "GET %s" key)
           with
           | Some v when v = Printf.sprintf "v%d" i -> incr ok_reads
           | Some _ | None -> ()
         done;
         finished := true));
  if
    not
      (Harness.pump eng ~done_p:(fun () -> !finished)
         ~virtual_deadline:(Engine.clock eng +. 120.))
  then Harness.fail "sched shard: client did not finish";
  if !ok_writes <> n then
    Harness.fail "sched shard: %d of %d writes routed ok" !ok_writes n;
  if !ok_reads <> n / 4 then
    Harness.fail "sched shard: %d of %d lease reads returned the written \
                  value" !ok_reads (n / 4);
  Engine.run ~until:(Engine.clock eng +. 0.5) eng;
  List.iter
    (fun (group, c) ->
      match R.Log_cluster.digests c with
      | d :: rest when List.for_all (( = ) d) rest -> ()
      | _ -> Harness.fail "sched shard: group %d replicas diverged" group)
    fleet;
  let st = Shard.Router.stats router in
  Harness.note_run ~label:"sched-shard" eng;
  Printf.printf
    "OK: %d writes + %d lease reads routed, groups converged (%d hops, %d \
     redirects, imbalance %.2f)\n%!"
    !ok_writes !ok_reads st.Shard.Router.hops st.Shard.Router.redirects
    (Shard.Router.imbalance router)

(* --- entry point --------------------------------------------------- *)

let default_workers = [ 1; 2; 4; 8 ]
let default_rates = [ 0.; 0.1; 0.5 ]

let run ?(quick = false) ?(backend = `Sim) ?(workers = default_workers)
    ?(conflict_rates = default_rates) () =
  match backend with
  | `Sim ->
    sim_sweep ~quick ~workers_list:workers ~rates:conflict_rates ();
    sharded_smoke ~quick ()
  | `Domains ->
    domains_sweep ~quick ~workers_list:workers ~rates:conflict_rates ()
