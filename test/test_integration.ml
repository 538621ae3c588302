(* Full-stack integration: each evaluation application replicated under
   Rex with its paper workload — digests must converge across replicas
   with no divergence; plus checkpointing and failover under the richest
   app (LevelDB, with its background compaction timer). *)

open Sim
module R = Rex_core

let cfg ?(workers = 6) ?(checkpoint_interval = None) () =
  R.Config.make ~workers ~checkpoint_interval ~replicas:[ 0; 1; 2 ] ()

(* Drive [n] requests into the given server through the local submit API,
   keeping up to [window] outstanding.  Returns (completed, dropped). *)
let drive cluster server ~n ~window gen =
  let eng = R.Cluster.engine cluster in
  let rng = Rng.create 1234 in
  let completed = ref 0 and dropped = ref 0 and launched = ref 0 in
  let rec submit_one () =
    if !launched < n then begin
      incr launched;
      R.Server.submit server (gen rng) (fun result ->
          (match result with Some _ -> incr completed | None -> incr dropped);
          submit_one ())
    end
  in
  ignore
    (Engine.spawn eng ~node:(R.Server.node server) (fun () ->
         for _ = 1 to min window n do
           submit_one ()
         done));
  ignore
    (Bench_lib.Harness.pump ~step:0.25 eng
       ~done_p:(fun () -> !completed + !dropped >= n)
       ~virtual_deadline:(Engine.clock eng +. 120.));
  (!completed, !dropped)

let live_digests cluster =
  R.Cluster.live cluster
  |> List.map (fun s -> (R.Server.node s, R.Server.app_digest s))

let check_converged what cluster =
  R.Cluster.run_for cluster 1.0;
  R.Cluster.check_no_divergence cluster;
  match live_digests cluster with
  | [] -> Alcotest.fail "no live replicas"
  | (_, d0) :: rest ->
    List.iter
      (fun (node, d) ->
        Alcotest.(check string) (Printf.sprintf "%s: replica %d" what node) d0 d)
      rest

let replicate_app ?(seed = 13) ?(n = 300) name factory gen =
  let cluster = R.Cluster.create ~seed (cfg ()) factory in
  R.Cluster.start cluster;
  let primary = R.Cluster.await_primary cluster in
  let completed, dropped = drive cluster primary ~n ~window:48 gen in
  Alcotest.(check int) (name ^ ": all completed") n completed;
  Alcotest.(check int) (name ^ ": none dropped") 0 dropped;
  check_converged name cluster

let thumbnail_replicated () =
  replicate_app "thumbnail"
    (Apps.Thumbnail.factory ~compute_cost:2e-4 ())
    (Workload.Mix.thumbnail ~n_images:50)

let lock_server_replicated () =
  replicate_app "lock-server"
    (Apps.Lock_server.factory ())
    (Workload.Mix.lock_server ~n_files:64)

let filesys_replicated () =
  replicate_app ~n:120 "filesys"
    (Apps.Filesys.factory ())
    (Workload.Mix.filesystem ~n_files:8)

let leveldb_replicated () =
  replicate_app "leveldb"
    (Apps.Leveldb.factory ~memtable_limit:8 ())
    (Workload.Mix.kv ~n_keys:200 ~read_ratio:0.3 ())

let kyoto_replicated () =
  replicate_app "kyoto"
    (Apps.Kyoto.factory ())
    (Workload.Mix.kv ~n_keys:200 ~read_ratio:0.3 ())

let memcache_replicated () =
  replicate_app "memcached"
    (Apps.Memcache.factory ~capacity:64 ())
    (Workload.Mix.kv ~n_keys:200 ~read_ratio:0.3 ())

let leveldb_with_checkpoints () =
  let cluster =
    R.Cluster.create ~seed:17
      (cfg ~checkpoint_interval:(Some 0.2) ())
      (Apps.Leveldb.factory ~memtable_limit:8 ())
  in
  R.Cluster.start cluster;
  let primary = R.Cluster.await_primary cluster in
  let gen = Workload.Mix.kv ~n_keys:100 ~read_ratio:0.2 () in
  let completed, _ = drive cluster primary ~n:400 ~window:32 gen in
  Alcotest.(check int) "all completed" 400 completed;
  R.Cluster.run_for cluster 1.0;
  let ckpts =
    Array.fold_left
      (fun acc s -> acc + (R.Server.stats s).R.Server.checkpoints_written)
      0 (R.Cluster.servers cluster)
  in
  Alcotest.(check bool) "checkpoints written under load" true (ckpts > 0);
  check_converged "leveldb+ckpt" cluster

let leveldb_failover_under_load () =
  let cluster =
    R.Cluster.create ~seed:19 (cfg ())
      (Apps.Leveldb.factory ~memtable_limit:8 ())
  in
  R.Cluster.start cluster;
  let primary = R.Cluster.await_primary cluster in
  let gen = Workload.Mix.kv ~n_keys:100 ~read_ratio:0.2 () in
  let completed1, _ = drive cluster primary ~n:150 ~window:32 gen in
  Alcotest.(check bool) "phase 1 progressed" true (completed1 > 0);
  R.Cluster.crash cluster (R.Server.node primary);
  R.Cluster.run_for cluster 1.0;
  let primary2 = R.Cluster.await_primary cluster in
  Alcotest.(check bool) "new primary" true
    (R.Server.node primary2 <> R.Server.node primary);
  let completed2, _ = drive cluster primary2 ~n:150 ~window:32 gen in
  Alcotest.(check int) "phase 2 completed" 150 completed2;
  (* Bring the old primary back; it must rebuild and converge. *)
  R.Cluster.restart cluster (R.Server.node primary);
  R.Cluster.run_for cluster 5.0;
  check_converged "leveldb failover" cluster

let hybrid_queries_during_load () =
  (* Native read-only queries run on primary and secondary while update
     handlers are recording/replaying — the hybrid execution of §4. *)
  let cluster =
    R.Cluster.create ~seed:23 (cfg ()) (Apps.Kyoto.factory ())
  in
  R.Cluster.start cluster;
  let primary = R.Cluster.await_primary cluster in
  let eng = R.Cluster.engine cluster in
  let secondary =
    Array.to_list (R.Cluster.servers cluster)
    |> List.find (fun s -> not (R.Server.is_primary s))
  in
  let queries_ok = ref 0 in
  ignore
    (Engine.spawn eng ~node:(R.Server.node primary) (fun () ->
         for _ = 1 to 50 do
           Engine.sleep 1e-3;
           if R.Server.query primary "COUNT" <> "" then incr queries_ok
         done));
  ignore
    (Engine.spawn eng ~node:(R.Server.node secondary) (fun () ->
         for _ = 1 to 50 do
           Engine.sleep 1e-3;
           if R.Server.query secondary "COUNT" <> "" then incr queries_ok
         done));
  let gen = Workload.Mix.kv ~n_keys:100 ~read_ratio:0.0 () in
  let completed, _ = drive cluster primary ~n:300 ~window:32 gen in
  Alcotest.(check int) "updates completed" 300 completed;
  Alcotest.(check int) "all queries served" 100 !queries_ok;
  check_converged "hybrid queries" cluster

let suite =
  [
    Alcotest.test_case "thumbnail replicated" `Quick thumbnail_replicated;
    Alcotest.test_case "lock server replicated" `Quick lock_server_replicated;
    Alcotest.test_case "filesys replicated" `Quick filesys_replicated;
    Alcotest.test_case "leveldb replicated" `Quick leveldb_replicated;
    Alcotest.test_case "kyoto replicated" `Quick kyoto_replicated;
    Alcotest.test_case "memcached replicated" `Quick memcache_replicated;
    Alcotest.test_case "leveldb + checkpoints" `Quick leveldb_with_checkpoints;
    Alcotest.test_case "leveldb failover under load" `Quick leveldb_failover_under_load;
    Alcotest.test_case "hybrid queries" `Quick hybrid_queries_during_load;
  ]

(* --- Cluster-level properties --- *)

(* The prefix property (§2.2) observed end-to-end: the committed cut only
   ever grows, and each secondary's executed cut trails it. *)
let committed_cuts_monotone () =
  let cluster = R.Cluster.create ~seed:41 (cfg ()) (Apps.Kyoto.factory ()) in
  R.Cluster.start cluster;
  let primary = R.Cluster.await_primary cluster in
  let eng = R.Cluster.engine cluster in
  let gen = Workload.Mix.kv ~n_keys:50 ~read_ratio:0.2 () in
  let rng = Rng.create 4 in
  let launched = ref 0 in
  let rec submit_one () =
    if !launched < 300 then begin
      incr launched;
      R.Server.submit primary (gen rng) (fun _ -> submit_one ())
    end
  in
  ignore
    (Engine.spawn eng ~node:(R.Server.node primary) (fun () ->
         for _ = 1 to 32 do
           submit_one ()
         done));
  let secondary =
    Array.to_list (R.Cluster.servers cluster)
    |> List.find (fun s -> not (R.Server.is_primary s))
  in
  let prev = ref (R.Server.committed_cut secondary) in
  let violations = ref 0 in
  for _ = 1 to 200 do
    R.Cluster.run_for cluster 2e-3;
    let c = R.Server.committed_cut secondary in
    if not (Trace.Cut.leq !prev c) then incr violations;
    if not (Trace.Cut.leq (R.Server.executed_cut secondary) c) then
      incr violations;
    prev := c
  done;
  Alcotest.(check int) "no monotonicity violations" 0 !violations

(* Determinism at cluster level: the same seed reproduces the exact same
   run; different seeds still converge to *some* consistent state. *)
let cluster_deterministic_per_seed () =
  let digest_of seed =
    let cluster = R.Cluster.create ~seed (cfg ()) (Apps.Kyoto.factory ()) in
    R.Cluster.start cluster;
    let primary = R.Cluster.await_primary cluster in
    let completed, _ =
      drive cluster primary ~n:200 ~window:32
        (Workload.Mix.kv ~n_keys:40 ~read_ratio:0.3 ())
    in
    Alcotest.(check int) "all done" 200 completed;
    R.Cluster.run_for cluster 1.0;
    R.Cluster.check_no_divergence cluster;
    R.Server.app_digest (R.Cluster.server cluster 0)
  in
  Alcotest.(check string) "same seed, same digest" (digest_of 99) (digest_of 99)

(* Random fault schedules: crash/restart random replicas at random times
   under load; the cluster must converge with no divergence. *)
let prop_random_fault_schedule =
  QCheck.Test.make ~name:"cluster survives random fault schedules" ~count:6
    QCheck.(pair (int_range 0 1000) (list_of_size (QCheck.Gen.int_range 1 3) (int_range 0 2)))
    (fun (seed, victims) ->
      let cluster =
        R.Cluster.create ~seed:(seed + 1)
          (cfg ~checkpoint_interval:(Some 0.3) ())
          (Apps.Kyoto.factory ())
      in
      R.Cluster.start cluster;
      let primary = R.Cluster.await_primary cluster in
      let eng = R.Cluster.engine cluster in
      let gen = Workload.Mix.kv ~n_keys:60 ~read_ratio:0.2 () in
      let rng = Rng.create seed in
      (* continuous load against whichever replica currently leads *)
      let stop = ref false in
      ignore
        (Engine.spawn eng ~node:3 (fun () ->
             while not !stop do
               (match R.Cluster.primary cluster with
               | Some p ->
                 for _ = 1 to 16 do
                   R.Server.submit p (gen rng) (fun _ -> ())
                 done
               | None -> ());
               Engine.sleep 5e-3
             done));
      ignore primary;
      (* fault schedule *)
      List.iter
        (fun v ->
          R.Cluster.run_for cluster 0.4;
          if Engine.node_alive eng v then begin
            R.Cluster.crash cluster v;
            R.Cluster.run_for cluster 0.6;
            R.Cluster.restart cluster v
          end)
        victims;
      R.Cluster.run_for cluster 3.0;
      stop := true;
      R.Cluster.run_for cluster 3.0;
      R.Cluster.check_no_divergence cluster;
      match live_digests cluster with
      | [] -> false
      | (_, d) :: rest -> List.for_all (fun (_, d') -> d' = d) rest)

let extra_suite =
  [
    Alcotest.test_case "committed cuts monotone" `Quick committed_cuts_monotone;
    Alcotest.test_case "cluster deterministic per seed" `Quick
      cluster_deterministic_per_seed;
    QCheck_alcotest.to_alcotest prop_random_fault_schedule;
  ]

let suite = suite @ extra_suite

(* Result checking (§5): an app whose response depends on UNRECORDED
   nondeterminism (a genuine bug) is caught when a secondary's recomputed
   response differs from the primary's logged digest. *)
let result_checking_catches_race () =
  let buggy : R.App.factory =
   fun api ->
    let lock = R.Api.lock api "b.lock" in
    let counter = ref 0 in
    let execute ~request:_ =
      Rexsync.Lock.with_lock lock (fun () -> incr counter);
      (* BUG: reads the engine clock without Api.nondet — differs between
         record and replay. *)
      Printf.sprintf "%d@%.9f" !counter (Engine.now ())
    in
    {
      R.App.name = "buggy";
      execute;
      query = (fun ~request:_ -> "");
      write_checkpoint = (fun sink -> Codec.write_uvarint sink !counter);
      read_checkpoint = (fun src -> counter := Codec.read_uvarint src);
      digest = (fun () -> string_of_int !counter);
    }
  in
  let cluster = R.Cluster.create ~seed:61 (cfg ()) buggy in
  R.Cluster.start cluster;
  let primary = R.Cluster.await_primary cluster in
  let _ = drive cluster primary ~n:50 ~window:8 (fun _ -> "go") in
  R.Cluster.run_for cluster 1.0;
  let caught =
    Array.exists
      (fun s -> R.Server.divergence s <> None)
      (R.Cluster.servers cluster)
  in
  Alcotest.(check bool) "secondary caught the divergent response" true caught

let suite = suite @ [ Alcotest.test_case "result checking catches race" `Quick result_checking_catches_race ]

(* §3.3: checkpoints propagate in the background, so even the primary —
   which never snapshots itself — ends up holding one, enabling local
   rollback on demotion. *)
let checkpoint_propagates_to_primary () =
  let cluster =
    R.Cluster.create ~seed:47
      (cfg ~checkpoint_interval:(Some 0.2) ())
      (Apps.Kyoto.factory ())
  in
  R.Cluster.start cluster;
  let primary = R.Cluster.await_primary cluster in
  let completed, _ =
    drive cluster primary ~n:300 ~window:32
      (Workload.Mix.kv ~n_keys:50 ~read_ratio:0.2 ())
  in
  Alcotest.(check int) "all done" 300 completed;
  R.Cluster.run_for cluster 1.0;
  (* Crash the primary and restart it: it must recover from its own
     pushed checkpoint even though its peers have GC'd old instances. *)
  let p = R.Server.node primary in
  R.Cluster.crash cluster p;
  R.Cluster.run_for cluster 0.5;
  R.Cluster.restart cluster p;
  R.Cluster.run_for cluster 3.0;
  check_converged "primary recovered via pushed checkpoint" cluster

let suite =
  suite
  @ [
      Alcotest.test_case "checkpoint propagates to primary" `Quick
        checkpoint_propagates_to_primary;
    ]

(* Pipelined consensus (§3.1): a Rex cluster with several open instances
   still preserves the prefix condition and converges. *)
let pipelined_rex_cluster () =
  let cfg =
    R.Config.make ~workers:6 ~pipeline_depth:4 ~replicas:[ 0; 1; 2 ] ()
  in
  let cluster = R.Cluster.create ~seed:67 cfg (Apps.Kyoto.factory ()) in
  R.Cluster.start cluster;
  let primary = R.Cluster.await_primary cluster in
  let completed, dropped =
    drive cluster primary ~n:400 ~window:64
      (Workload.Mix.kv ~n_keys:100 ~read_ratio:0.3 ())
  in
  Alcotest.(check int) "all completed" 400 completed;
  Alcotest.(check int) "none dropped" 0 dropped;
  check_converged "pipelined rex" cluster;
  (* Failover with open pipelined proposals. *)
  R.Cluster.crash cluster (R.Server.node primary);
  R.Cluster.run_for cluster 1.0;
  let primary2 = R.Cluster.await_primary cluster in
  let completed2, _ =
    drive cluster primary2 ~n:200 ~window:64
      (Workload.Mix.kv ~n_keys:100 ~read_ratio:0.3 ())
  in
  Alcotest.(check int) "post-failover completed" 200 completed2;
  R.Cluster.restart cluster (R.Server.node primary);
  R.Cluster.run_for cluster 5.0;
  check_converged "pipelined rex after failover" cluster

let suite =
  suite
  @ [ Alcotest.test_case "pipelined rex cluster" `Quick pipelined_rex_cluster ]

(* --- Chain replication agree stage (§7) --- *)

let chain_cluster ?(seed = 83) ?(checkpoint_interval = None) () =
  let cluster =
    R.Cluster.create ~seed ~agreement:`Chain
      (cfg ~checkpoint_interval ())
      (Apps.Kyoto.factory ())
  in
  R.Cluster.start cluster;
  cluster

let chain_basic_replication () =
  let cluster = chain_cluster () in
  let primary = R.Cluster.await_primary cluster in
  let completed, dropped =
    drive cluster primary ~n:300 ~window:48
      (Workload.Mix.kv ~n_keys:100 ~read_ratio:0.3 ())
  in
  Alcotest.(check int) "all completed" 300 completed;
  Alcotest.(check int) "none dropped" 0 dropped;
  check_converged "chain replication" cluster

let chain_head_failover () =
  let cluster = chain_cluster ~seed:89 () in
  let primary = R.Cluster.await_primary cluster in
  let gen = Workload.Mix.kv ~n_keys:100 ~read_ratio:0.3 () in
  let completed1, _ = drive cluster primary ~n:150 ~window:32 gen in
  Alcotest.(check int) "phase 1" 150 completed1;
  (* Kill the head: the second node must take over after the VM times
     it out, with any unacknowledged deltas re-driven first. *)
  R.Cluster.crash cluster (R.Server.node primary);
  R.Cluster.run_for cluster 1.0;
  let primary2 = R.Cluster.await_primary cluster in
  Alcotest.(check bool) "new head" true
    (R.Server.node primary2 <> R.Server.node primary);
  let completed2, _ = drive cluster primary2 ~n:150 ~window:32 gen in
  Alcotest.(check int) "phase 2" 150 completed2;
  (* The old head rejoins as the new tail and must converge. *)
  R.Cluster.restart cluster (R.Server.node primary);
  R.Cluster.run_for cluster 5.0;
  check_converged "chain head failover" cluster

let chain_tail_failover_with_checkpoints () =
  let cluster = chain_cluster ~seed:97 ~checkpoint_interval:(Some 0.3) () in
  let primary = R.Cluster.await_primary cluster in
  let gen = Workload.Mix.kv ~n_keys:100 ~read_ratio:0.3 () in
  let completed1, _ = drive cluster primary ~n:200 ~window:32 gen in
  Alcotest.(check int) "phase 1" 200 completed1;
  R.Cluster.run_for cluster 1.0;
  (* Kill a non-head member. *)
  let victim =
    Array.to_list (R.Cluster.servers cluster)
    |> List.find (fun s -> not (R.Server.is_primary s))
    |> R.Server.node
  in
  R.Cluster.crash cluster victim;
  R.Cluster.run_for cluster 0.5;
  let completed2, _ = drive cluster primary ~n:200 ~window:32 gen in
  Alcotest.(check int) "phase 2 (chain healed around the gap)" 200 completed2;
  R.Cluster.restart cluster victim;
  R.Cluster.run_for cluster 5.0;
  check_converged "chain tail failover" cluster

let suite =
  suite
  @ [
      Alcotest.test_case "chain: basic replication" `Quick chain_basic_replication;
      Alcotest.test_case "chain: head failover" `Quick chain_head_failover;
      Alcotest.test_case "chain: member failover + ckpt" `Quick
        chain_tail_failover_with_checkpoints;
    ]
