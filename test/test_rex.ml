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
  R.Cluster.live cluster
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
    R.Cluster.create_log ~seed ?cores_per_node
      ~replicas:config.R.Config.replicas (fun net rpc ~node ~paxos_store ->
        Smr.create net rpc config ~node ~paxos_store factory)
  in
  R.Cluster.start cluster;
  R.Cluster.run ~until:1.0 cluster;
  let primary = R.Cluster.await_primary cluster in
  (cluster, R.Cluster.engine cluster, primary)

let smr_baseline_replicates () =
  let cluster, eng, _ = smr_cluster ~seed:31 ~cores_per_node:16 (test_app ()) in
  let servers = R.Cluster.servers cluster in
  let cl = R.Cluster.client cluster in
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
  let ds = Array.map Smr.app_digest (R.Cluster.servers cluster) in
  Alcotest.(check string) "0=1" ds.(0) ds.(1);
  Alcotest.(check string) "0=2" ds.(0) ds.(2)

let smr_failover () =
  let cluster, eng, _ = smr_cluster ~seed:73 (test_app ()) in
  let cl = R.Cluster.client cluster in
  let phase n = drive_requests cl (List.init n (fun i -> Printf.sprintf "INC s%d" (i mod 3))) eng 3 in
  ignore (phase 20);
  let leader = Option.get (R.Cluster.primary cluster) in
  R.Cluster.crash cluster (Smr.node leader);
  Engine.run ~until:(Engine.clock eng +. 2.0) eng;
  let results = phase 20 in
  Alcotest.(check bool) "service resumed after SMR failover" true
    (List.exists (fun (_, r) -> r <> None) results);
  (* note: the crashed node stays down; the two live replicas agree *)
  Engine.run ~until:(Engine.clock eng +. 1.0) eng;
  match R.Cluster.digests cluster with
  | d :: rest -> List.iter (Alcotest.(check string) "smr live agree" d) rest
  | [] -> Alcotest.fail "no live replicas"

(* The [Not_leader] hint a surviving follower gives once the leader and
   the third replica have crashed, so that no one can be elected: the
   dead leader 5 ms after the crash, and no one once the follower has
   missed its lease plus a heartbeat.  Naming the dead node then would
   send the client back to it for one more attempt timeout. *)
let hints_after_leader_crash eng rpc ~client_node ~primary ~crash =
  let survivor, other =
    match List.filter (fun n -> n <> primary) [ 0; 1; 2 ] with
    | [ a; b ] -> (a, b)
    | _ -> assert false
  in
  crash primary;
  crash other;
  let crashed = Engine.clock eng in
  let hints = ref [] in
  ignore
    (Engine.spawn eng ~node:client_node (fun () ->
         let uid = Engine.fresh_uid eng in
         List.iteri
           (fun seq at ->
             Engine.sleep (crashed +. at -. Engine.now ());
             let envelope =
               R.Session.Envelope.encode
                 { R.Session.Envelope.client = uid; seq; payload = "INC h" }
             in
             match
               Rpc.call rpc ~src:client_node ~dst:survivor
                 ~port:R.Client.client_port ~timeout:0.01 envelope
             with
             | Some r -> (
               match R.Client.decode_reply r with
               | R.Client.Not_leader hint -> hints := hint :: !hints
               | _ -> Alcotest.fail "a follower answered other than Not_leader")
             | None -> Alcotest.fail "the follower did not answer")
           [ 5e-3; 40e-3 ]));
  Engine.run ~until:(crashed +. 0.2) eng;
  Alcotest.(check (list (option int)))
    "hint: the dead leader, then no one" [ Some primary; None ]
    (List.rev !hints)

let rex_hint_forgets_dead_leader () =
  let cluster = R.Cluster.create ~seed:11 (cfg ()) (test_app ()) in
  R.Cluster.start cluster;
  let primary = R.Server.node (R.Cluster.await_primary cluster) in
  hints_after_leader_crash (R.Cluster.engine cluster) (R.Cluster.rpc cluster)
    ~client_node:(R.Cluster.client_node cluster) ~primary
    ~crash:(R.Cluster.crash cluster)

let smr_hint_forgets_dead_leader () =
  let cluster, eng, primary = smr_cluster ~seed:73 (test_app ()) in
  hints_after_leader_crash eng (R.Cluster.rpc cluster)
    ~client_node:(R.Cluster.client_node cluster) ~primary:(Smr.node primary)
    ~crash:(R.Cluster.crash cluster)

let suite =
  suite
  @ [
      Alcotest.test_case "smr timers serialized" `Quick smr_timers_serialized;
      Alcotest.test_case "smr failover" `Quick smr_failover;
      Alcotest.test_case "rex follower forgets a dead leader" `Quick
        rex_hint_forgets_dead_leader;
      Alcotest.test_case "smr follower forgets a dead leader" `Quick
        smr_hint_forgets_dead_leader;
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
   slowest takes 0.61 s and the fibers finish under 1 900 calls.  With
   a fixed 100 ms attempt timeout and followers that kept naming the
   dead leader, the slowest took up to 0.21 s, and with Rex proposing on
   events it took 50-80 ms: the calls of one handle kept sending each
   other back to the dead node.  Now the guess suspects a node that timed
   out, and a call goes there only on a hint of its own, not because a
   sibling's rotation left the guess there: the slowest call takes
   29-36 ms at these seeds. *)
let shared_handle_rides_failover name make_call seed () =
  let calls, failed, worst = shared_handle_failover ~seed make_call in
  let what s = Printf.sprintf "%s seed %d: %s" name seed s in
  Alcotest.(check bool) (what "calls kept flowing") true (calls > 5000);
  Alcotest.(check int) (what "no call gave up") 0 failed;
  Alcotest.(check bool)
    (what (Printf.sprintf "slowest call %.3fs within 0.05 s" worst))
    true (worst <= 0.05)

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

(* --- No spurious elections under CPU load --- *)

let counter_total eng subsystem name =
  Obs.Registry.fold (Obs.registry (Engine.obs eng)) ~init:0
    ~f:(fun acc (key : Obs.Registry.key) inst ->
      match inst with
      | Obs.Registry.Counter c
        when key.subsystem = subsystem && key.name = name ->
        acc + Obs.Metric.value c
      | _ -> acc)

(* kv-cpu's shape for 2 s: 8 cores and 8 workers per replica, INCs that
   each spend 500 us of CPU, and Poisson arrivals at two thirds of SMR's
   sequential capacity (1,333 req/s), each from a session of its own.
   Busy cores must not pass for a dead leader: no follower campaigns
   after the set-up election, and no client gives up on the loaded
   leader and resends (the reply cache is never hit). *)
let no_elections_under_cpu_load stack () =
  let factory = test_app ~shards:64 ~work:500e-6 () in
  let config = R.Config.make ~workers:8 ~replicas:[ 0; 1; 2 ] () in
  let conflict req =
    match String.split_on_char ' ' req with _ :: k :: _ -> [ k ] | _ -> []
  in
  let eng, rpc, client_node, leader =
    match Check.Runner.stack_of_string stack with
    | Some Check.Runner.Rex ->
      let c = R.Cluster.create ~seed:5 config factory in
      R.Cluster.start c;
      let p = R.Cluster.await_primary c in
      ( R.Cluster.engine c, R.Cluster.rpc c, R.Cluster.client_node c,
        R.Server.node p )
    | Some s ->
      let (Check.Runner.Log_stack mk) =
        Check.Runner.log_stack s config ~conflict factory
      in
      let c = R.Cluster.create_log ~seed:5 ~replicas:[ 0; 1; 2 ] mk in
      R.Cluster.start c;
      R.Cluster.run ~until:1.0 c;
      let p = R.Cluster.await_primary c in
      ( R.Cluster.engine c, R.Cluster.rpc c,
        R.Cluster.client_node c, R.Log_server.node p )
    | None -> invalid_arg stack
  in
  let set_up = counter_total eng "paxos" "campaigns" in
  let rng = Rng.create 11 in
  let stop = Engine.clock eng +. 2.0 in
  let sent = ref 0 and answered = ref 0 in
  let replicas = leader :: List.filter (fun n -> n <> leader) [ 0; 1; 2 ] in
  ignore
    (Engine.spawn eng ~node:client_node ~name:"arrivals" (fun () ->
         while Engine.now () < stop do
           Engine.sleep (Rng.exponential rng ~mean:(1. /. 1333.));
           incr sent;
           let req = Printf.sprintf "INC k%d" (Rng.int rng 4096) in
           ignore
             (Engine.spawn eng ~node:client_node (fun () ->
                  let cl = R.Client.create rpc ~me:client_node ~replicas in
                  if R.Client.call cl req <> None then incr answered))
         done));
  Engine.run ~until:(stop +. 1.0) eng;
  Alcotest.(check bool) "load offered" true (!sent > 2000);
  Alcotest.(check int) "every request answered" !sent !answered;
  Alcotest.(check int) "campaigns: the set-up election's only" set_up
    (counter_total eng "paxos" "campaigns");
  Alcotest.(check int) "no reply-cache hits" 0
    (counter_total eng "frontend" "dup_hits")

let suite =
  suite
  @ List.map
      (fun stack ->
        Alcotest.test_case
          (Printf.sprintf "no elections under cpu load: %s" stack)
          `Quick
          (no_elections_under_cpu_load stack))
      [ "rex"; "smr"; "cbase"; "early" ]

(* --- Decoders on the checkpoint and commit paths --- *)

let checkpoint_gen =
  QCheck.Gen.(
    map
      (fun ((seq, instance), (cut, versions), app_bytes) ->
        {
          R.Checkpoint.seq;
          instance;
          cut = Trace.Cut.of_array (Array.of_list cut);
          versions;
          app_bytes;
        })
      (triple
         (pair (int_bound 1_000) (int_bound 100_000))
         (pair
            (list_size (int_range 1 16) (int_bound 100_000))
            (list_size (int_bound 6) (pair (int_bound 5_000) (int_bound 300))))
         (string_size (int_bound 48))))

let prop_checkpoint_roundtrip =
  QCheck.Test.make ~name:"checkpoint roundtrip" ~count:300
    (QCheck.make checkpoint_gen) (fun c ->
      R.Checkpoint.decode (R.Checkpoint.encode c) = c)

(* Every truncation raises [Codec.Decode_error]; an encoding with one
   byte overwritten (at every offset, by a generated byte) may decode,
   but raises nothing else. *)
let prop_checkpoint_fuzz =
  QCheck.Test.make ~name:"checkpoint decode: truncations and corruptions"
    ~count:300
    (QCheck.pair (QCheck.make checkpoint_gen) QCheck.(int_bound 255))
    (fun (c, byte) ->
      let enc = R.Checkpoint.encode c in
      let n = String.length enc in
      List.for_all
        (fun len ->
          match R.Checkpoint.decode (String.sub enc 0 len) with
          | _ -> false
          | exception Codec.Decode_error _ -> true)
        (List.init n Fun.id)
      && List.for_all
           (fun at ->
             match
               R.Checkpoint.decode
                 (String.mapi (fun i ch -> if i = at then Char.chr byte else ch) enc)
             with
             | _ -> true
             | exception Codec.Decode_error _ -> true)
           (List.init n Fun.id))

(* A one-replica Rex server behind a hand-driven agree stage: it leads at
   once, [propose] queues the value, and the test commits what it likes. *)
let hand_driven_primary () =
  let eng = Engine.create ~seed:3 ~num_nodes:2 () in
  let net = Net.create eng in
  let rpc = Rpc.create net in
  let proposed = Queue.create () and commit = ref (fun _ _ -> ()) in
  let make_agreement _ (cbs : R.Agreement.callbacks) =
    commit := cbs.R.Agreement.on_committed;
    {
      R.Agreement.start = cbs.R.Agreement.on_become_leader;
      propose =
        (fun v ->
          Queue.push v proposed;
          true);
      can_propose = (fun () -> true);
      next_instance = (fun () -> 0);
      is_leader = (fun () -> true);
      leader_hint = (fun () -> Some 0);
      committed_upto = (fun () -> 0);
      committed = (fun _ -> None);
      truncate_below = ignore;
      fast_forward = ignore;
      lease_valid = (fun () -> false);
      read_index = (fun () -> 0);
      peers = (fun () -> [ 0 ]);
      reconfig = (fun _ ~live:_ ~release:_ -> false);
    }
  in
  let srv =
    R.Server.create ~make_agreement net rpc
      (R.Config.make ~workers:2 ~replicas:[ 0 ] ())
      ~node:0 ~paxos_store:(Paxos.Store.create ())
      ~disk:(R.Checkpoint.Disk.create ()) (test_app ())
  in
  R.Server.start srv;
  Engine.run ~until:0.01 eng;
  Alcotest.(check bool) "leads" true (R.Server.is_primary srv);
  (eng, srv, proposed, fun i v -> !commit i v)

(* The primary skips decoding only the very string it proposed.  A
   committed value that merely looks like it, a corrupted copy above all,
   takes the full decode and is counted. *)
let corrupted_commit_counts_decode_error () =
  let eng, srv, proposed, commit = hand_driven_primary () in
  let reply = ref None in
  R.Server.submit srv "INC a" (fun r -> reply := r);
  Engine.run ~until:0.02 eng;
  (* the last proposal's upto covers the request *)
  let v = Queue.fold (fun _ v -> v) "" proposed in
  Queue.clear proposed;
  commit 1 (String.sub v 0 (String.length v - 1));
  Alcotest.(check int) "truncated copy counted" 1
    (counter_total eng "rex" "decode_errors");
  Alcotest.(check (option string)) "reply still held" None !reply;
  (* An intact copy is decoded, found to be ours, and releases the reply. *)
  commit 2 (String.sub v 0 (String.length v));
  Alcotest.(check int) "intact copy decodes" 1
    (counter_total eng "rex" "decode_errors");
  Alcotest.(check (option string)) "reply released" (Some "1") !reply;
  R.Server.submit srv "INC a" (fun r -> reply := r);
  Engine.run ~until:0.03 eng;
  List.iteri (fun i v -> commit (3 + i) v) (List.of_seq (Queue.to_seq proposed));
  Alcotest.(check (option string)) "own string releases" (Some "2") !reply;
  Alcotest.(check bool) "still primary" true (R.Server.is_primary srv)

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_checkpoint_roundtrip;
      QCheck_alcotest.to_alcotest prop_checkpoint_fuzz;
      Alcotest.test_case "corrupted commit counts a decode error" `Quick
        corrupted_commit_counts_decode_error;
    ]

(* --- Request intake wakes one worker --- *)

let idle_primary ?(flow_window = 20_000) ?(work = 5e-5) () =
  let c =
    R.Cluster.create ~seed:9
      (R.Config.make ~workers:8 ~flow_window ~replicas:[ 0; 1; 2 ] ())
      (test_app ~shards:8 ~work ())
  in
  R.Cluster.start c;
  let p = R.Cluster.await_primary c in
  R.Cluster.run_for c 0.05;
  (c, p)

let submit_burst p ~answered n =
  for i = 1 to n do
    R.Server.submit p (Printf.sprintf "INC b%d" i) (function
      | Some _ -> incr answered
      | None -> ())
  done

(* One request to an idle primary resumes one of its eight workers; the
   other seven stay parked. *)
let one_request_wakes_one_worker () =
  let c, p = idle_primary () in
  Alcotest.(check int) "all idle" 8 (R.Server.idle_workers p);
  let answered = ref 0 in
  submit_burst p ~answered 1;
  Alcotest.(check int) "one woken" 7 (R.Server.idle_workers p);
  R.Cluster.run_for c 0.05;
  Alcotest.(check int) "answered" 1 !answered;
  Alcotest.(check int) "idle again" 8 (R.Server.idle_workers p)

(* A burst that arrives while no worker takes requests — every slot
   paused for a checkpoint, or the primary stalled by flow control —
   still gets every request answered once intake resumes. *)
let burst_during_checkpoint_pause () =
  let c, p = idle_primary ~work:2e-3 () in
  let eng = R.Cluster.engine c and answered = ref 0 in
  submit_burst p ~answered 1;
  R.Cluster.run_for c 5e-4;
  (* the pause waits for the busy worker to finish its request *)
  R.Server.request_checkpoint p;
  submit_burst p ~answered 30;
  R.Cluster.run_for c 0.5;
  Alcotest.(check int) "every request answered" 31 !answered;
  Alcotest.(check bool) "checkpoint written" true
    (counter_total eng "rex" "checkpoints_written" > 0)

let burst_during_flow_stall () =
  let c, p = idle_primary ~flow_window:8 () in
  let eng = R.Cluster.engine c and answered = ref 0 in
  submit_burst p ~answered 40;
  R.Cluster.run_for c 1.0;
  Alcotest.(check int) "every request answered" 40 !answered;
  Alcotest.(check bool) "flow control stalled" true
    (counter_total eng "rex" "flow_stalls" > 0)

let suite =
  suite
  @ [
      Alcotest.test_case "one request wakes one worker" `Quick
        one_request_wakes_one_worker;
      Alcotest.test_case "burst during a checkpoint pause" `Quick
        burst_during_checkpoint_pause;
      Alcotest.test_case "burst during a flow-control stall" `Quick
        burst_during_flow_stall;
    ]

(* --- Event-driven proposing (DESIGN.md §19) --- *)

(* The primary proposes on reply-bearing progress, with no clock of its
   own: one request with nothing after it is answered within a Paxos
   round of its execution. *)
let lone_request_answered () =
  let cluster = R.Cluster.create ~seed:3 (cfg ()) (test_app ()) in
  R.Cluster.start cluster;
  ignore (R.Cluster.await_primary cluster);
  quiesce cluster;
  let eng = R.Cluster.engine cluster in
  let cl = R.Cluster.client cluster in
  let reply = ref None and took = ref infinity in
  ignore
    (Engine.spawn eng ~node:(R.Cluster.client_node cluster) ~name:"lone"
       (fun () ->
         let t0 = Engine.now () in
         reply := R.Client.call cl "INC solo";
         took := Engine.now () -. t0));
  R.Cluster.run_for cluster 0.05;
  Alcotest.(check (option string)) "answered" (Some "1") !reply;
  Alcotest.(check bool)
    (Printf.sprintf "answered in %.3f ms, under 0.5 ms" (!took *. 1e3))
    true (!took < 0.5e-3)

(* The primary proposes a cut once it holds reply-bearing progress and
   the agree stage takes another instance.  Request [b] is submitted
   while the cut holding [a]'s completion is in flight: at depth 2 [b]'s
   cut is proposed as soon as [b] completes, before [a] is answered; at
   depth 1 it waits for [a]'s cut to commit. *)
let cut_proposed_while_previous_in_flight () =
  let timeline depth =
    let cluster =
      R.Cluster.create ~seed:3
        (R.Config.make ~workers:4 ~pipeline_depth:depth ~replicas:[ 0; 1; 2 ] ())
        (test_app ~work:1e-5 ())
    in
    R.Cluster.start cluster;
    let p = R.Cluster.await_primary cluster in
    quiesce cluster;
    let eng = R.Cluster.engine cluster in
    let proposals () = (R.Server.stats p).R.Server.proposals_sent in
    let result = ref None in
    ignore
      (Engine.spawn eng ~node:(R.Server.node p) (fun () ->
           let p0 = proposals () in
           let a_at = ref None and b_at = ref None in
           R.Server.submit p "INC a" (fun _ -> a_at := Some (Engine.now ()));
           while proposals () = p0 do
             Engine.sleep 1e-6
           done;
           R.Server.submit p "INC b" ignore;
           while !b_at = None || !a_at = None do
             if !b_at = None && proposals () >= p0 + 2 then b_at := Some (Engine.now ());
             Engine.sleep 1e-6
           done;
           result := Some (!b_at < !a_at)));
    R.Cluster.run_for cluster 0.01;
    Option.get !result
  in
  Alcotest.(check bool) "depth 2: b's cut proposed before a is answered" true
    (timeline 2);
  Alcotest.(check bool) "depth 1: b's cut waits for a's commit" false
    (timeline 1)

(* A closed loop keeps the primary proposing in the commit that closes
   its open instance, and Paxos takes a config entry only while none is
   open: the change holds the proposer until the entry is delivered.
   Adding a replica under 16 clients must commit within a fraction of
   [Cluster.add_replica]'s limit, and the grown group must converge. *)
let add_replica_under_load () =
  let cluster = R.Cluster.create ~seed:5 (cfg ()) (test_app ()) in
  R.Cluster.start cluster;
  ignore (R.Cluster.await_primary cluster);
  let eng = R.Cluster.engine cluster in
  let stop = ref false and acked = ref 0 in
  for c = 0 to 15 do
    ignore
      (Engine.spawn eng ~node:(R.Cluster.client_node cluster)
         ~name:"load.client" (fun () ->
           let cl = R.Cluster.client cluster in
           while not !stop do
             if R.Client.call cl (Printf.sprintf "INC k%d" c) <> None then
               incr acked
           done))
  done;
  R.Cluster.run_for cluster 0.2;
  let before = !acked in
  let node = R.Cluster.add_replica ~limit:2.0 cluster in
  Alcotest.(check bool) "load kept running" true (!acked > before);
  Alcotest.(check bool) "newcomer is a member" true
    (List.mem node (R.Cluster.members cluster));
  stop := true;
  quiesce cluster;
  R.Cluster.check_no_divergence cluster;
  Alcotest.(check int) "four live replicas" 4 (List.length (all_digests cluster));
  check_digests_equal "digests converge incl newcomer" cluster

(* A membership change holds the proposer in the agree stage itself:
   [can_propose] is false from the [reconfig] call until its [release]
   runs.  A hold whose caller went away ([live] false) outlasts the
   change, and the next term starts without it. *)
let reconfig_holds_agree_stage () =
  let replicas = [ 0; 1; 2; 3; 4 ] in
  let cluster =
    R.Cluster.create ~seed:5 (R.Config.make ~workers:2 ~replicas ()) (test_app ())
  in
  R.Cluster.start cluster;
  let p = R.Cluster.await_primary cluster in
  let leader = R.Server.node p in
  let agree = R.Server.agreement in
  let can_propose s = (agree s).R.Agreement.can_propose () in
  Alcotest.(check bool) "proposes before the change" true (can_propose p);
  let released = ref false in
  let removed = List.find (( <> ) leader) replicas in
  let members = List.filter (( <> ) removed) replicas in
  Alcotest.(check bool) "change started" true
    ((agree p).R.Agreement.reconfig members
       ~live:(fun () -> true)
       ~release:(fun () -> released := true));
  Alcotest.(check bool) "held at once" false (can_propose p);
  Alcotest.(check bool) "a second change is refused" false
    ((agree p).R.Agreement.reconfig replicas ~live:(fun () -> true)
       ~release:ignore);
  R.Cluster.run_for cluster 0.5e-3;
  Alcotest.(check bool) "still waiting" false !released;
  Alcotest.(check bool) "held while the change waits" false (can_propose p);
  R.Cluster.run_for cluster 0.05;
  Alcotest.(check bool) "released" true !released;
  Alcotest.(check (list int)) "change delivered" members
    ((agree p).R.Agreement.peers ());
  Alcotest.(check bool) "proposes after release" true (can_propose p);
  (* Every member is left holding by a change whose caller is gone. *)
  List.iter
    (fun s ->
      if List.mem (R.Server.node s) members then
        ignore
          ((agree s).R.Agreement.reconfig replicas
             ~live:(fun () -> false)
             ~release:ignore))
    (R.Cluster.live cluster);
  R.Cluster.run_for cluster 0.01;
  Alcotest.(check bool) "an abandoned change keeps its hold" false
    (can_propose p);
  R.Cluster.crash cluster leader;
  let p' = R.Cluster.await_primary cluster in
  Alcotest.(check bool) "a new leader" true (R.Server.node p' <> leader);
  Alcotest.(check bool) "the new term starts with no hold" true
    (can_propose p')

(* A parked intake fiber wakes when the last fresh report goes stale,
   with no report or tick to wake it. *)
let flow_park_wakes_at_staleness () =
  let eng = Engine.create ~seed:1 ~num_nodes:1 () in
  let flow = R.Frontend.Flow.create eng ~window:10 ~staleness:0.05 in
  let woke = ref None in
  ignore
    (Engine.spawn eng ~node:0 ~name:"intake" (fun () ->
         R.Frontend.Flow.note flow ~src:1 ~count:0;
         Engine.sleep 0.01;
         R.Frontend.Flow.note flow ~src:2 ~count:5;
         while not (R.Frontend.Flow.ok flow ~mine:100) do
           R.Frontend.Flow.park flow
         done;
         woke := Some (Engine.now ())));
  Engine.run ~until:1.0 eng;
  match !woke with
  | Some at ->
    Alcotest.(check bool)
      (Printf.sprintf "woke at %.6f s, when the newest report went stale" at)
      true
      (Float.abs (at -. 0.06) < 1e-6)
  | None -> Alcotest.fail "parked past every report's staleness"

let suite =
  suite
  @ [
      Alcotest.test_case "lone request answered without a tick" `Quick
        lone_request_answered;
      Alcotest.test_case "a cut is proposed while the previous is in flight"
        `Quick cut_proposed_while_previous_in_flight;
      Alcotest.test_case "add a replica under a closed loop" `Quick
        add_replica_under_load;
      Alcotest.test_case "reconfig holds the agree stage" `Quick
        reconfig_holds_agree_stage;
      Alcotest.test_case "flow park wakes at staleness" `Quick
        flow_park_wakes_at_staleness;
    ]
