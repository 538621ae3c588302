(* End-to-end tests of the Rex framework: replication, consistency across
   replicas, failover with promotion mid-stream, demotion rollback,
   checkpointing + recovery, query semantics, and the SMR baseline. *)

open Sim
module R = Rex_core

(* --- Test application: a sharded key/value counter store. ---
   Requests: "INC <key>" -> new value; "PUT <key> <v>" -> "OK";
   "GET <key>" -> value (also served as a query). *)

let test_app ?(shards = 4) ?(work = 5e-5) () : R.App.factory =
 fun api ->
  let shard_tables = Array.init shards (fun _ -> Hashtbl.create 64) in
  let shard_locks =
    Array.init shards (fun i -> R.Api.lock api (Printf.sprintf "shard%d" i))
  in
  let shard_of key = Hashtbl.hash key mod shards in
  let with_shard key f =
    let i = shard_of key in
    Rexsync.Lock.lock shard_locks.(i);
    Fun.protect
      ~finally:(fun () -> Rexsync.Lock.unlock shard_locks.(i))
      (fun () -> f shard_tables.(i))
  in
  let execute ~request =
    R.Api.work api work;
    match String.split_on_char ' ' request with
    | [ "INC"; key ] ->
      with_shard key (fun tbl ->
          let v = Option.value (Hashtbl.find_opt tbl key) ~default:0 + 1 in
          Hashtbl.replace tbl key v;
          string_of_int v)
    | [ "PUT"; key; v ] ->
      with_shard key (fun tbl ->
          Hashtbl.replace tbl key (int_of_string v);
          "OK")
    | [ "GET"; key ] ->
      with_shard key (fun tbl ->
          string_of_int (Option.value (Hashtbl.find_opt tbl key) ~default:0))
    | _ -> "ERR:bad-request"
  in
  let query ~request =
    match String.split_on_char ' ' request with
    | [ "GET"; key ] ->
      let tbl = shard_tables.(shard_of key) in
      string_of_int (Option.value (Hashtbl.find_opt tbl key) ~default:0)
    | _ -> "ERR:bad-query"
  in
  let sorted_bindings () =
    Array.to_list shard_tables
    |> List.concat_map (fun tbl -> Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
    |> List.sort compare
  in
  let digest () =
    string_of_int (Hashtbl.hash (sorted_bindings ()))
  in
  let write_checkpoint sink =
    Codec.write_list sink
      (fun b (k, v) ->
        Codec.write_string b k;
        Codec.write_varint b v)
      (sorted_bindings ())
  in
  let read_checkpoint src =
    Array.iter Hashtbl.reset shard_tables;
    let bindings =
      Codec.read_list src (fun s ->
          let k = Codec.read_string s in
          let v = Codec.read_varint s in
          (k, v))
    in
    List.iter
      (fun (k, v) -> Hashtbl.replace shard_tables.(shard_of k) k v)
      bindings
  in
  { R.App.name = "test-kv"; execute; query; write_checkpoint; read_checkpoint; digest }

let cfg ?(workers = 4) ?(checkpoint_interval = None) () =
  R.Config.make ~workers ~checkpoint_interval ~replicas:[ 0; 1; 2 ] ()

(* Drive [n] requests from concurrent client fibers on the client node;
   returns the collected (request, response) pairs once all have
   completed or the time limit passes. *)
let drive_requests ?(concurrency = 8) cl requests eng node =
  let results = ref [] in
  let remaining = ref (List.length requests) in
  let pending = ref requests in
  for _ = 1 to concurrency do
    ignore
      (Engine.spawn eng ~node ~name:"client" (fun () ->
           let rec loop () =
             match !pending with
             | [] -> ()
             | req :: rest ->
               pending := rest;
               let resp = R.Client.call cl req in
               results := (req, resp) :: !results;
               decr remaining;
               loop ()
           in
           loop ()))
  done;
  ignore
    (Bench_lib.Harness.pump ~step:0.5 eng
       ~done_p:(fun () -> !remaining = 0)
       ~virtual_deadline:(Engine.clock eng +. 120.));
  !results

(* Let secondaries finish replaying everything committed. *)
let quiesce cluster =
  R.Cluster.run_for cluster 0.5

let all_digests cluster =
  Array.to_list (R.Cluster.servers cluster)
  |> List.filter (fun s ->
         Engine.node_alive (R.Cluster.engine cluster) (R.Server.node s))
  |> List.map (fun s -> (R.Server.node s, R.Server.app_digest s))

let check_digests_equal what cluster =
  match all_digests cluster with
  | [] -> Alcotest.fail "no live replicas"
  | (_, d0) :: rest ->
    List.iter
      (fun (n, d) ->
        Alcotest.(check string) (Printf.sprintf "%s: replica %d" what n) d0 d)
      rest

let e2e_replication () =
  let cluster = R.Cluster.create ~seed:3 (cfg ()) (test_app ()) in
  R.Cluster.start cluster;
  ignore (R.Cluster.await_primary cluster);
  let cl = R.Cluster.client cluster in
  let reqs = List.init 60 (fun i -> Printf.sprintf "INC key%d" (i mod 7)) in
  let results =
    drive_requests cl reqs (R.Cluster.engine cluster) (R.Cluster.client_node cluster)
  in
  Alcotest.(check int) "all requests answered" 60
    (List.length (List.filter (fun (_, r) -> r <> None) results));
  quiesce cluster;
  R.Cluster.check_no_divergence cluster;
  check_digests_equal "digests converge" cluster;
  (* Primary answered with monotonically increasing counter values per key. *)
  let primary = Option.get (R.Cluster.primary cluster) in
  Alcotest.(check string) "final value via query" "9"
    (R.Server.query primary "GET key0")

let secondary_replays_concurrently () =
  (* The waited-events counter only moves on replicas that replay. *)
  let cluster = R.Cluster.create ~seed:5 (cfg ()) (test_app ()) in
  R.Cluster.start cluster;
  let primary = R.Cluster.await_primary cluster in
  let cl = R.Cluster.client cluster in
  let reqs = List.init 80 (fun i -> Printf.sprintf "INC k%d" (i mod 3)) in
  ignore
    (drive_requests cl reqs (R.Cluster.engine cluster)
       (R.Cluster.client_node cluster));
  quiesce cluster;
  Array.iter
    (fun s ->
      if R.Server.node s <> R.Server.node primary then begin
        let st = R.Server.runtime_stats s in
        Alcotest.(check bool)
          (Printf.sprintf "replica %d replayed events" (R.Server.node s))
          true
          (st.Rexsync.Runtime.events_replayed > 0)
      end)
    (R.Cluster.servers cluster);
  R.Cluster.check_no_divergence cluster

let failover_continues_service () =
  let cluster = R.Cluster.create ~seed:11 (cfg ()) (test_app ()) in
  R.Cluster.start cluster;
  let primary = R.Cluster.await_primary cluster in
  let cl = R.Cluster.client cluster in
  let eng = R.Cluster.engine cluster in
  let cnode = R.Cluster.client_node cluster in
  ignore (drive_requests cl (List.init 30 (fun i -> Printf.sprintf "INC a%d" (i mod 3))) eng cnode);
  (* Kill the primary mid-flight. *)
  R.Cluster.crash cluster (R.Server.node primary);
  R.Cluster.run_for cluster 1.0;
  let results2 =
    drive_requests cl (List.init 30 (fun i -> Printf.sprintf "INC b%d" (i mod 3))) eng cnode
  in
  Alcotest.(check bool) "service resumed" true
    (List.exists (fun (_, r) -> r <> None) results2);
  let new_primary = R.Cluster.await_primary cluster in
  Alcotest.(check bool) "new primary is a different node" true
    (R.Server.node new_primary <> R.Server.node primary);
  quiesce cluster;
  R.Cluster.check_no_divergence cluster;
  check_digests_equal "digests converge after failover" cluster

let checkpoint_and_rejoin () =
  let cluster =
    R.Cluster.create ~seed:17
      (cfg ~checkpoint_interval:(Some 0.5) ())
      (test_app ())
  in
  R.Cluster.start cluster;
  let primary = R.Cluster.await_primary cluster in
  let cl = R.Cluster.client cluster in
  let eng = R.Cluster.engine cluster in
  let cnode = R.Cluster.client_node cluster in
  ignore (drive_requests cl (List.init 40 (fun i -> Printf.sprintf "INC c%d" (i mod 5))) eng cnode);
  (* Run past a checkpoint interval so secondaries snapshot. *)
  R.Cluster.run_for cluster 1.5;
  let victim =
    R.Server.node
      (Array.to_list (R.Cluster.servers cluster)
      |> List.find (fun s -> not (R.Server.is_primary s)))
  in
  let ckpts_before =
    Array.fold_left
      (fun acc s -> acc + (R.Server.stats s).R.Server.checkpoints_written)
      0 (R.Cluster.servers cluster)
  in
  Alcotest.(check bool) "some secondary wrote a checkpoint" true (ckpts_before > 0);
  R.Cluster.crash cluster victim;
  R.Cluster.run_for cluster 0.5;
  ignore (drive_requests cl (List.init 40 (fun i -> Printf.sprintf "INC d%d" (i mod 5))) eng cnode);
  R.Cluster.restart cluster victim;
  R.Cluster.run_for cluster 5.0;
  ignore primary;
  R.Cluster.check_no_divergence cluster;
  check_digests_equal "rejoined replica converges" cluster

let demotion_rolls_back () =
  let cluster = R.Cluster.create ~seed:23 (cfg ()) (test_app ()) in
  R.Cluster.start cluster;
  let primary = R.Cluster.await_primary cluster in
  let cl = R.Cluster.client cluster in
  let eng = R.Cluster.engine cluster in
  let cnode = R.Cluster.client_node cluster in
  ignore (drive_requests cl (List.init 20 (fun i -> Printf.sprintf "INC e%d" (i mod 2))) eng cnode);
  let p = R.Server.node primary in
  (* Isolate the primary: it keeps executing speculatively; the others
     elect a new leader; on heal the old primary must roll back. *)
  List.iter
    (fun i -> if i <> p then Net.partition (R.Cluster.net cluster) p i)
    [ 0; 1; 2 ];
  (* Local (non-replicated) submissions on the isolated primary create
     speculative state that can never commit. *)
  for i = 0 to 9 do
    R.Server.submit primary (Printf.sprintf "INC zombie%d" i) (fun _ -> ())
  done;
  R.Cluster.run_for cluster 2.0;
  Net.heal_all (R.Cluster.net cluster);
  R.Cluster.run_for cluster 2.0;
  ignore (drive_requests cl (List.init 10 (fun i -> Printf.sprintf "INC f%d" i)) eng cnode);
  R.Cluster.run_for cluster 3.0;
  let old_primary = R.Cluster.server cluster p in
  Alcotest.(check bool) "old primary demoted" true (not (R.Server.is_primary old_primary));
  Alcotest.(check bool) "rollback counted" true
    ((R.Server.stats old_primary).R.Server.rollbacks >= 1);
  R.Cluster.check_no_divergence cluster;
  check_digests_equal "speculative state discarded everywhere" cluster;
  (* The zombie keys must not exist on the rolled-back replica. *)
  Alcotest.(check string) "zombie gone" "0" (R.Server.query old_primary "GET zombie0")

let query_semantics () =
  let cluster = R.Cluster.create ~seed:29 (cfg ()) (test_app ()) in
  R.Cluster.start cluster;
  let primary = R.Cluster.await_primary cluster in
  let cl = R.Cluster.client cluster in
  let eng = R.Cluster.engine cluster in
  let cnode = R.Cluster.client_node cluster in
  (* Sequential on purpose: the PUT must precede the INC. *)
  ignore (drive_requests ~concurrency:1 cl [ "PUT q 41"; "INC q" ] eng cnode);
  quiesce cluster;
  (* Committed state visible on every replica. *)
  Array.iter
    (fun s ->
      Alcotest.(check string)
        (Printf.sprintf "query on replica %d" (R.Server.node s))
        "42" (R.Server.query s "GET q"))
    (R.Cluster.servers cluster);
  ignore primary

(* A three-replica SMR group over [factory], started, with a primary. *)
let smr_cluster ~seed ?cores_per_node factory =
  let config = cfg () in
  let cluster =
    R.Log_cluster.create ~seed ?cores_per_node
      ~replicas:config.R.Config.replicas (fun net rpc ~node ~paxos_store ->
        Smr.create net rpc config ~node ~paxos_store factory)
  in
  R.Log_cluster.start cluster;
  let primary = R.Log_cluster.await_primary cluster in
  (cluster, R.Log_cluster.engine cluster, primary)

let smr_baseline_replicates () =
  let cluster, eng, _ = smr_cluster ~seed:31 ~cores_per_node:16 (test_app ()) in
  let servers = R.Log_cluster.servers cluster in
  let cl = R.Log_cluster.client cluster in
  let answered = ref 0 in
  ignore
    (Engine.spawn eng ~node:3 (fun () ->
         for i = 1 to 30 do
           match R.Client.call cl (Printf.sprintf "INC s%d" (i mod 4)) with
           | Some _ -> incr answered
           | None -> ()
         done));
  Engine.run ~until:30.0 eng;
  Alcotest.(check int) "all answered" 30 !answered;
  Engine.run ~until:31.0 eng;
  let digests = Array.map Smr.app_digest servers in
  Alcotest.(check string) "smr replicas agree 0=1" digests.(0) digests.(1);
  Alcotest.(check string) "smr replicas agree 0=2" digests.(0) digests.(2);
  (* Sequential execution: every replica executed every request. *)
  Array.iter
    (fun s ->
      Alcotest.(check bool) "executed all" true (Smr.executed_requests s >= 30))
    servers

let suite =
  [
    Alcotest.test_case "e2e replication" `Quick e2e_replication;
    Alcotest.test_case "secondaries replay" `Quick secondary_replays_concurrently;
    Alcotest.test_case "failover continues service" `Quick failover_continues_service;
    Alcotest.test_case "checkpoint + rejoin" `Quick checkpoint_and_rejoin;
    Alcotest.test_case "demotion rolls back" `Quick demotion_rolls_back;
    Alcotest.test_case "query semantics" `Quick query_semantics;
    Alcotest.test_case "smr baseline" `Quick smr_baseline_replicates;
  ]

(* --- Additional behaviours --- *)

(* A client pointed at a secondary gets redirected to the leader. *)
let client_redirects () =
  let cluster = R.Cluster.create ~seed:37 (cfg ()) (test_app ()) in
  R.Cluster.start cluster;
  let primary = R.Cluster.await_primary cluster in
  let secondary =
    Array.to_list (R.Cluster.servers cluster)
    |> List.find (fun s -> not (R.Server.is_primary s))
  in
  let eng = R.Cluster.engine cluster in
  let got = ref None in
  ignore
    (Engine.spawn eng ~node:(R.Cluster.client_node cluster) (fun () ->
         let cl =
           R.Client.create
             (R.Cluster.rpc cluster)
             ~me:(R.Cluster.client_node cluster)
             ~replicas:
               (* deliberately guess the secondary first *)
               [ R.Server.node secondary; R.Server.node primary ]
         in
         got := R.Client.call cl "INC redirected";
         Alcotest.(check int)
           "client learned the real leader" (R.Server.node primary)
           (R.Client.leader_guess cl)));
  R.Cluster.run_for cluster 5.0;
  Alcotest.(check (option string)) "served after redirect" (Some "1") !got

(* Checkpoints garbage-collect the consensus log beneath them. *)
let checkpoint_gc_truncates () =
  let cluster =
    R.Cluster.create ~seed:43
      (cfg ~checkpoint_interval:(Some 0.2) ())
      (test_app ())
  in
  R.Cluster.start cluster;
  let primary = R.Cluster.await_primary cluster in
  let eng = R.Cluster.engine cluster in
  let done_ = ref 0 in
  ignore
    (Engine.spawn eng ~node:(R.Server.node primary) (fun () ->
         for i = 1 to 200 do
           R.Server.submit primary (Printf.sprintf "INC g%d" (i mod 7))
             (fun _ -> incr done_)
         done));
  R.Cluster.run_for cluster 2.0;
  Alcotest.(check int) "load done" 200 !done_;
  (* Some secondary must have written a checkpoint and truncated. *)
  let truncated =
    Array.to_list (R.Cluster.servers cluster)
    |> List.exists (fun s ->
           (not (R.Server.is_primary s))
           && (R.Server.stats s).R.Server.checkpoints_written > 0
           && (R.Server.agreement s).R.Agreement.committed 1 = None)
  in
  Alcotest.(check bool) "log below checkpoint collected" true truncated

(* Bounded memory: under periodic checkpoints every replica compacts its
   trace in place, so the resident event count stays well below the
   cumulative history; and a failover after compaction still converges —
   the dropped prefix was genuinely dead. *)
let compaction_bounds_trace () =
  let cluster =
    R.Cluster.create ~seed:61
      (cfg ~checkpoint_interval:(Some 0.2) ())
      (test_app ())
  in
  R.Cluster.start cluster;
  let primary = R.Cluster.await_primary cluster in
  let eng = R.Cluster.engine cluster in
  let done_ = ref 0 in
  (* Several load bursts with checkpoint intervals between them. *)
  for round = 1 to 6 do
    ignore
      (Engine.spawn eng ~node:(R.Server.node primary) (fun () ->
           for i = 1 to 100 do
             R.Server.submit primary
               (Printf.sprintf "INC h%d" ((round + i) mod 7))
               (fun _ -> incr done_)
           done));
    R.Cluster.run_for cluster 0.7
  done;
  Alcotest.(check int) "load done" 600 !done_;
  Array.iter
    (fun s ->
      let tr = Rexsync.Runtime.trace (R.Server.runtime s) in
      (* Clocks are absolute, so the end cut measures cumulative history
         while [event_count] measures what is still resident. *)
      let total =
        Array.fold_left ( + ) 0 (Trace.Cut.to_array (Trace.end_cut tr))
      in
      let resident = Trace.event_count tr in
      let name what = Printf.sprintf "replica %d %s" (R.Server.node s) what in
      Alcotest.(check bool) (name "compacted") true (Trace.compactions tr > 0);
      Alcotest.(check bool)
        (name (Printf.sprintf "bounded (%d resident of %d)" resident total))
        true
        (2 * resident < total))
    (R.Cluster.servers cluster);
  (* Fail over onto a compacted secondary: it must serve from its
     checkpoint + retained window alone. *)
  R.Cluster.crash cluster (R.Server.node primary);
  R.Cluster.run_for cluster 1.0;
  let cl = R.Cluster.client cluster in
  let results =
    drive_requests cl
      (List.init 30 (fun i -> Printf.sprintf "INC h%d" (i mod 7)))
      eng (R.Cluster.client_node cluster)
  in
  Alcotest.(check bool) "service resumed after compaction" true
    (List.exists (fun (_, r) -> r <> None) results);
  quiesce cluster;
  R.Cluster.check_no_divergence cluster;
  check_digests_equal "digests converge after compacted failover" cluster

(* Divergence reports embed a rendered trace window. *)
let divergence_report_renders () =
  let buggy : R.App.factory =
   fun api ->
    let l = R.Api.lock api "rep.lock" in
    let n = ref 0 in
    {
      R.App.name = "buggy2";
      execute =
        (fun ~request:_ ->
          Rexsync.Lock.with_lock l (fun () -> incr n);
          (* unrecorded nondeterminism *)
          string_of_int (Hashtbl.hash (Engine.now ())));
      query = (fun ~request:_ -> "");
      write_checkpoint = (fun sink -> Codec.write_uvarint sink !n);
      read_checkpoint = (fun src -> n := Codec.read_uvarint src);
      digest = (fun () -> string_of_int !n);
    }
  in
  let cluster = R.Cluster.create ~seed:53 (cfg ()) buggy in
  R.Cluster.start cluster;
  let primary = R.Cluster.await_primary cluster in
  let done_ = ref 0 in
  ignore
    (Engine.spawn (R.Cluster.engine cluster) ~node:(R.Server.node primary)
       (fun () ->
         for _ = 1 to 30 do
           R.Server.submit primary "go" (fun _ -> incr done_)
         done));
  R.Cluster.run_for cluster 2.0;
  let report =
    Array.to_list (R.Cluster.servers cluster)
    |> List.find_map R.Server.divergence_report
  in
  match report with
  | Some r ->
    Alcotest.(check bool) "mentions the resource" true
      (let contains hay needle =
         let n = String.length needle and h = String.length hay in
         let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
         go 0
       in
       contains r "digraph" && contains r "rep.lock")
  | None -> Alcotest.fail "expected a divergence report"

let suite =
  suite
  @ [
      Alcotest.test_case "client redirect" `Quick client_redirects;
      Alcotest.test_case "checkpoint GC truncates" `Quick checkpoint_gc_truncates;
      Alcotest.test_case "compaction bounds trace" `Quick compaction_bounds_trace;
      Alcotest.test_case "divergence report renders" `Quick divergence_report_renders;
    ]

(* --- SMR baseline extras --- *)

(* Background timers under classic RSM are serialized as proposed
   pseudo-requests, so every replica runs the callback at the same point
   in the request order. *)
let smr_timers_serialized () =
  let cluster, eng, primary =
    smr_cluster ~seed:71
      (Apps.Leveldb.factory ~memtable_limit:4 ~compaction_interval:5e-3 ())
  in
  let done_ = ref 0 in
  ignore
    (Engine.spawn eng ~node:(Smr.node primary) (fun () ->
         for i = 1 to 60 do
           Smr.submit primary (Printf.sprintf "SET t%d v%d" i i) (fun _ ->
               incr done_)
         done));
  Engine.run ~until:3.0 eng;
  Alcotest.(check int) "all replied" 60 !done_;
  Engine.run ~until:4.0 eng;
  (* Compaction (a timer) ran identically everywhere: digests equal even
     though the memtable/disktable split is part of the digest's input. *)
  let ds = Array.map Smr.app_digest (R.Log_cluster.servers cluster) in
  Alcotest.(check string) "0=1" ds.(0) ds.(1);
  Alcotest.(check string) "0=2" ds.(0) ds.(2)

let smr_failover () =
  let cluster, eng, _ = smr_cluster ~seed:73 (test_app ()) in
  let cl = R.Log_cluster.client cluster in
  let phase n = drive_requests cl (List.init n (fun i -> Printf.sprintf "INC s%d" (i mod 3))) eng 3 in
  ignore (phase 20);
  let leader = Option.get (R.Log_cluster.primary cluster) in
  R.Log_cluster.crash cluster (Smr.node leader);
  Engine.run ~until:(Engine.clock eng +. 2.0) eng;
  let results = phase 20 in
  Alcotest.(check bool) "service resumed after SMR failover" true
    (List.exists (fun (_, r) -> r <> None) results);
  (* note: the crashed node stays down; the two live replicas agree *)
  Engine.run ~until:(Engine.clock eng +. 1.0) eng;
  match R.Log_cluster.digests cluster with
  | d :: rest -> List.iter (Alcotest.(check string) "smr live agree" d) rest
  | [] -> Alcotest.fail "no live replicas"

let suite =
  suite
  @ [
      Alcotest.test_case "smr timers serialized" `Quick smr_timers_serialized;
      Alcotest.test_case "smr failover" `Quick smr_failover;
    ]

(* --- Live topology: membership changes under traffic --- *)

let replace_replica_under_traffic () =
  let cluster = R.Cluster.create ~seed:67 (cfg ()) (test_app ()) in
  R.Cluster.start cluster;
  ignore (R.Cluster.await_primary cluster);
  let eng = R.Cluster.engine cluster in
  let cnode = R.Cluster.client_node cluster in
  let cl = R.Cluster.client cluster in
  ignore
    (drive_requests cl
       (List.init 30 (fun i -> Printf.sprintf "INC r%d" (i mod 3)))
       eng cnode);
  (* Replace a non-primary member: add node 4 (node 3 is the client),
     retire the victim, both through the replicated log. *)
  let primary0 = Option.get (R.Cluster.primary cluster) in
  let victim =
    List.find
      (fun n -> n <> R.Server.node primary0)
      (R.Cluster.members cluster)
  in
  let fresh = R.Cluster.replace_replica cluster victim in
  Alcotest.(check (list int)) "membership replaced"
    (List.sort compare
       (fresh :: List.filter (fun n -> n <> victim) [ 0; 1; 2 ]))
    (List.sort compare (R.Cluster.members cluster));
  Alcotest.(check bool) "victim is down" false
    (Engine.node_alive eng victim);
  (* Traffic keeps flowing against the new membership. *)
  let results =
    drive_requests cl
      (List.init 30 (fun i -> Printf.sprintf "INC r%d" (i mod 3)))
      eng cnode
  in
  Alcotest.(check int) "all answered after replacement" 30
    (List.length (List.filter (fun (_, r) -> r <> None) results));
  quiesce cluster;
  R.Cluster.check_no_divergence cluster;
  (* The newcomer bootstrapped to the same state as the survivors. *)
  check_digests_equal "digests converge incl newcomer" cluster;
  let newcomer = R.Cluster.server cluster fresh in
  Alcotest.(check bool) "newcomer is a full member" true
    (List.mem fresh (R.Server.peers newcomer))

let rolling_restart_preserves_service () =
  let cluster =
    R.Cluster.create ~seed:71 (cfg ~checkpoint_interval:(Some 0.5) ())
      (test_app ())
  in
  R.Cluster.start cluster;
  ignore (R.Cluster.await_primary cluster);
  let eng = R.Cluster.engine cluster in
  let cnode = R.Cluster.client_node cluster in
  let cl = R.Cluster.client cluster in
  ignore
    (drive_requests cl
       (List.init 30 (fun i -> Printf.sprintf "INC u%d" (i mod 3)))
       eng cnode);
  R.Cluster.rolling_restart cluster;
  Alcotest.(check (list int)) "membership unchanged" [ 0; 1; 2 ]
    (List.sort compare (R.Cluster.members cluster));
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d back up" n)
        true
        (Engine.node_alive eng n))
    (R.Cluster.members cluster);
  let results =
    drive_requests cl
      (List.init 30 (fun i -> Printf.sprintf "INC u%d" (i mod 3)))
      eng cnode
  in
  Alcotest.(check int) "all answered after rolling restart" 30
    (List.length (List.filter (fun (_, r) -> r <> None) results));
  quiesce cluster;
  R.Cluster.check_no_divergence cluster;
  check_digests_equal "digests converge after rolling restart" cluster

let suite =
  suite
  @ [
      Alcotest.test_case "replace replica under traffic" `Quick
        replace_replica_under_traffic;
      Alcotest.test_case "rolling restart preserves service" `Quick
        rolling_restart_preserves_service;
    ]

(* --- Concurrent calls on one client handle across a leader crash --- *)

(* Four fibers share one handle, each issuing [INC] every 1 ms; the
   primary crashes 0.3 s in and the run lasts 3 s.  Returns the number
   of calls, how many came back [None], and the slowest call. *)
let shared_handle_failover ~seed make_call =
  let cluster = R.Cluster.create ~seed (cfg ()) (test_app ()) in
  R.Cluster.start cluster;
  let primary = R.Cluster.await_primary cluster in
  let eng = R.Cluster.engine cluster in
  let call = make_call cluster in
  let stop = Engine.clock eng +. 3.0 in
  let calls = ref 0 and failed = ref 0 and worst = ref 0. in
  for f = 1 to 4 do
    ignore
      (Engine.spawn eng ~node:(R.Cluster.client_node cluster) ~name:"shared"
         (fun () ->
           while Engine.now () < stop do
             let start = Engine.now () in
             if call (Printf.sprintf "INC f%d" f) = None then incr failed;
             incr calls;
             worst := Float.max !worst (Engine.now () -. start);
             Engine.sleep 1e-3
           done))
  done;
  R.Cluster.run_for cluster 0.3;
  R.Cluster.crash cluster (R.Server.node primary);
  R.Cluster.run cluster ~until:(stop +. 2.0);
  (!calls, !failed, !worst)

let client_handle cluster = R.Client.call (R.Cluster.client cluster)

let router_handle cluster =
  let router =
    Shard.Router.create (R.Cluster.net cluster) (R.Cluster.rpc cluster)
      ~me:(R.Cluster.client_node cluster)
      ~map:(Shard.Shard_map.create ~groups:[ 0 ] ())
      ~groups:[ (0, R.Cluster.members cluster) ]
  in
  Shard.Router.call_group router ~group:0

(* With an unversioned leader guess the shared client's calls undo each
   other's redirects: at each of these seeds some calls give up, the
   slowest takes 0.61 s and the fibers finish under 1 900 calls.  The
   bound allows two attempt timeouts, because a follower that has not
   yet noticed the crash hints the dead leader and sends one retry back
   to it (seed 7 takes 0.21 s that way with a client per fiber, too). *)
let shared_handle_rides_failover name make_call seed () =
  let calls, failed, worst = shared_handle_failover ~seed make_call in
  let what s = Printf.sprintf "%s seed %d: %s" name seed s in
  Alcotest.(check bool) (what "calls kept flowing") true (calls > 5000);
  Alcotest.(check int) (what "no call gave up") 0 failed;
  Alcotest.(check bool)
    (what (Printf.sprintf "slowest call %.3fs within 0.25 s" worst))
    true (worst <= 0.25)

let suite =
  suite
  @ List.concat_map
      (fun seed ->
        [
          Alcotest.test_case
            (Printf.sprintf "shared client rides failover (seed %d)" seed)
            `Quick
            (shared_handle_rides_failover "client" client_handle seed);
          Alcotest.test_case
            (Printf.sprintf "shared router rides failover (seed %d)" seed)
            `Quick
            (shared_handle_rides_failover "router" router_handle seed);
        ])
      [ 1; 4; 7 ]
