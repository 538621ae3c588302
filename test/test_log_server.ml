(* The log-order stacks (SMR, CBASE, early scheduling, Eve) behind one
   batcher–Paxos–frontend core.

   The golden runs pin one fixed-seed scenario per stack: clients drive
   writes and lease reads through the frontend, a follower is replaced
   by a rolling upgrade that replays the committed log, and then the
   leader crashes.  For SMR, CBASE and early the app is memcache, whose
   slab-maintainer timer exercises the tick path.  Eve rejects timers,
   so its run uses the lock server.  The digest covers every replica's
   app and session-table digests, every client answer, the final
   virtual clock, and the commit, message, byte and event counters.  A
   pinned value changes only when the simulated behaviour is meant to.
   SMR, CBASE and early are pinned at pipeline depth 1, the paper's one
   open instance, at depth 2, the former default, and at the default
   depth (4). *)

open Sim
module R = Rex_core

(* A stack is its [create] over a config. *)
let smr cfg net rpc ~node ~paxos_store =
  Smr.create net rpc cfg ~node ~paxos_store (Apps.Memcache.factory ())

let sched mode cfg net rpc ~node ~paxos_store =
  Sched.Server.create net rpc cfg ~node ~paxos_store ~mode
    ~conflict:Sched.Conflict.kv (Apps.Memcache.factory ())

let lock_path req =
  match String.split_on_char ' ' req with
  | _ :: path :: _ -> [ path ]
  | _ -> []

let eve cfg net rpc ~node ~paxos_store =
  let ecfg =
    Eve.default_config ~workers:cfg.R.Config.workers
      ~replicas:cfg.R.Config.replicas ()
  in
  Eve.create net rpc ecfg ~node ~paxos_store ~conflict_keys:lock_path
    (Apps.Lock_server.factory ())

let deploy ?pipeline_depth stack =
  let replicas = [ 0; 1; 2 ] in
  let cfg = R.Config.make ~workers:4 ?pipeline_depth ~replicas () in
  let cluster = R.Cluster.create_log ~seed:7 ~replicas (stack cfg) in
  R.Cluster.start cluster;
  R.Cluster.run ~until:1.0 cluster;
  let leader = R.Log_server.node (R.Cluster.await_primary cluster) in
  (cluster, leader)

let memcache_op c i =
  let k = (c * 7) + (i mod 5) in
  if i mod 4 = 3 then `Read (Printf.sprintf "GET k%d" k)
  else `Write (Printf.sprintf "SET k%d v%d.%d" k c i)

let lock_op c i =
  let p = (c * 7) + (i mod 5) in
  match i mod 4 with
  | 0 -> `Write (Printf.sprintf "CREATE /f%d %d" p (100 + i))
  | 1 -> `Write (Printf.sprintf "UPDATE /f%d %d" p (200 + i))
  | 2 -> `Write (Printf.sprintf "RENEW /f%d" p)
  | _ -> `Read (Printf.sprintf "READ /f%d" p)

let counter_sum eng qualified =
  let sub, name =
    match String.index_opt qualified '/' with
    | Some i ->
      ( String.sub qualified 0 i,
        String.sub qualified (i + 1) (String.length qualified - i - 1) )
    | None -> invalid_arg qualified
  in
  Obs.Registry.fold (Obs.registry (Engine.obs eng)) ~init:0
    ~f:(fun acc (key : Obs.Registry.key) inst ->
      match inst with
      | Obs.Registry.Counter c when key.subsystem = sub && key.name = name ->
        acc + Obs.Metric.value c
      | _ -> acc)

let golden_digest ?pipeline_depth stack op =
  let cluster, first_leader = deploy ?pipeline_depth stack in
  let eng = R.Cluster.engine cluster in
  let answers = Buffer.create 4096 in
  for c = 0 to 2 do
    ignore
      (Engine.spawn eng ~node:3 ~name:"golden.client" (fun () ->
           let cl = R.Cluster.client cluster in
           for i = 0 to 59 do
             let r =
               match op c i with
               | `Write req -> R.Client.call ~retries:8 cl req
               | `Read req -> R.Client.query ~retries:8 cl req
             in
             Printf.bprintf answers "%h %d.%d %s\n" (Engine.clock eng) c i
               (Option.value r ~default:"-");
             Engine.sleep 2e-3
           done))
  done;
  let follower = if first_leader = 0 then 1 else 0 in
  (* Rolling upgrade: a replacement server over the same Paxos store
     rebuilds app and session state by replaying the committed log. *)
  Engine.schedule eng ~at:1.05 (fun () ->
      R.Cluster.crash cluster follower;
      R.Cluster.restart cluster follower);
  Engine.schedule eng ~at:1.1 (fun () -> Engine.crash_node eng first_leader);
  Engine.run ~until:3.0 eng;
  let b = Buffer.create 4096 in
  Buffer.add_buffer b answers;
  Array.iter
    (fun s ->
      Printf.bprintf b "node %d app %s session %s\n" (R.Log_server.node s)
        (R.Log_server.app_digest s)
        (R.Session.Table.digest (R.Log_server.session_table s)))
    (R.Cluster.servers cluster);
  Printf.bprintf b "clock %h\n" (Engine.clock eng);
  List.iter
    (fun c -> Printf.bprintf b "%s %d\n" c (counter_sum eng c))
    [ "paxos/commits"; "net/messages"; "net/bytes"; "sim/events_dispatched" ];
  Digest.to_hex (Digest.string (Buffer.contents b))

let golden ?pipeline_depth name stack op expected () =
  Alcotest.(check string) (name ^ " digest") expected
    (golden_digest ?pipeline_depth stack op)

(* Timer ticks travel through the log as "\x00TIMER:<index>" requests.
   A client that sends those bytes itself must be answered [Dropped]:
   neither a malformed index (which once raised out of the executor and
   stopped the whole simulation) nor a valid one (which ran the app's
   timer out of schedule and never answered) may reach the log. *)
let forged_ticks_dropped stack () =
  let cluster, leader = deploy stack in
  let eng = R.Cluster.engine cluster in
  let rpc = R.Cluster.rpc cluster in
  let replies = ref [] in
  ignore
    (Engine.spawn eng ~node:3 (fun () ->
         List.iter
           (fun payload ->
             let r =
               Rpc.call rpc ~src:3 ~dst:leader ~port:R.Client.client_port
                 ~timeout:0.5 payload
             in
             let r = Option.map R.Client.decode_reply r in
             replies := (payload, r) :: !replies)
           [ "\x00TIMER:zz"; "\x00TIMER:0" ]));
  Engine.run ~until:3.0 eng;
  List.iter
    (fun (payload, r) ->
      if r <> Some R.Client.Dropped then
        Alcotest.failf "%S was not answered Dropped" payload)
    !replies;
  Alcotest.(check int) "both answered" 2 (List.length !replies)

(* A rolling restart of an SMR group: each member in turn is crashed
   and rebuilt from its Paxos store by replaying the committed log,
   while a client keeps writing.  The group re-elects after every step,
   serves every write, and its replicas converge. *)
let smr_rolling_restart () =
  let cluster, _ = deploy smr in
  let eng = R.Cluster.engine cluster in
  let before = Array.copy (R.Cluster.servers cluster) in
  let acked = ref 0 and finished = ref false in
  ignore
    (Engine.spawn eng ~node:3 ~name:"rolling.client" (fun () ->
         let cl = R.Cluster.client cluster in
         for i = 0 to 29 do
           let req = Printf.sprintf "SET k%d v%d" (i mod 7) i in
           if R.Client.call ~retries:12 cl req = Some "STORED" then incr acked;
           Engine.sleep 0.1
         done;
         finished := true));
  R.Cluster.rolling_restart ~pause:0.3 cluster;
  while not !finished do
    R.Cluster.run_for cluster 0.1
  done;
  R.Cluster.run_for cluster 0.5;
  Array.iteri
    (fun i s ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d restarted" (R.Log_server.node s))
        true (s != before.(i)))
    (R.Cluster.servers cluster);
  Alcotest.(check bool) "a primary leads" true
    (R.Cluster.primary cluster <> None);
  Alcotest.(check int) "every write served" 30 !acked;
  match R.Cluster.digests cluster with
  | [ a; b; c ] ->
    Alcotest.(check bool) "one digest" true (a = b && b = c)
  | ds -> Alcotest.failf "%d live replicas" (List.length ds)

(* Eve under rolling upgrades and message loss: an upgraded replica
   that becomes leader again can lose the verdict for a batch it
   replayed while its peers, which hold that verdict, have moved on.
   Its re-reports must reach a replica that holds the verdict, or every
   executor waits forever (this seed diverged and wedged before). *)
let eve_new_leader_recovers_lost_verdict () =
  let nemesis = Option.get (Check.Nemesis.profile_of_string "upgrade") in
  let cfg =
    Check.Runner.default_config ~clients:2 ~ops_per_client:6
      ~stack:Check.Runner.Eve ~app:Check.Runner.Counter ~nemesis ~seed:1006 ()
  in
  let o = Check.Runner.run_one cfg in
  if not (Check.Runner.passed o) then
    Alcotest.fail (String.concat "\n" (Check.Runner.describe_outcome o))


(* Paxos takes a config entry only while no instance is open, and a
   closed-loop load keeps the event-driven batcher proposing on every
   commit, so the leader always has one open.  Adding a replica must
   still commit, within a fraction of [Cluster.add_replica]'s limit,
   and the grown group must converge. *)
let smr_add_replica_under_load () =
  let cluster, _ = deploy smr in
  let eng = R.Cluster.engine cluster in
  let stop = ref false and acked = ref 0 in
  for c = 0 to 15 do
    ignore
      (Engine.spawn eng ~node:(R.Cluster.client_node cluster)
         ~name:"load.client" (fun () ->
           let cl = R.Cluster.client cluster in
           let i = ref 0 in
           while not !stop do
             incr i;
             let req = Printf.sprintf "SET k%d v%d" c !i in
             if R.Client.call ~retries:8 cl req = Some "STORED" then incr acked
           done))
  done;
  R.Cluster.run_for cluster 0.2;
  let before = !acked in
  let node = R.Cluster.add_replica ~limit:2.0 cluster in
  Alcotest.(check bool) "load kept running" true (!acked > before);
  Alcotest.(check bool) "newcomer is a member" true
    (List.mem node (R.Cluster.members cluster));
  stop := true;
  R.Cluster.run_for cluster 1.0;
  match R.Cluster.digests cluster with
  | [ a; b; c; d ] ->
    Alcotest.(check bool) "one digest" true (a = b && b = c && c = d)
  | ds -> Alcotest.failf "%d live replicas" (List.length ds)

(* [Config.paxos_sync_latency] reaches the log-order stacks' Paxos: a
   follower syncs before it answers an Accept, so an SMR write cannot be
   answered sooner than the sync latency. *)
let smr_pays_sync_latency () =
  let write_latency sync =
    let replicas = [ 0; 1; 2 ] in
    let cfg = R.Config.make ~workers:4 ~replicas ~paxos_sync_latency:sync () in
    let cluster = R.Cluster.create_log ~seed:7 ~replicas (smr cfg) in
    R.Cluster.start cluster;
    R.Cluster.run ~until:1.0 cluster;
    ignore (R.Cluster.await_primary cluster);
    let eng = R.Cluster.engine cluster in
    let took = ref None in
    ignore
      (Engine.spawn eng ~node:3 ~name:"sync.client" (fun () ->
           let cl = R.Cluster.client cluster in
           (* the first call finds the leader *)
           ignore (R.Client.call cl "SET k a");
           let t0 = Engine.clock eng in
           if R.Client.call cl "SET k b" <> None then
             took := Some (Engine.clock eng -. t0)));
    R.Cluster.run_for cluster 1.0;
    match !took with
    | Some dt -> dt
    | None -> Alcotest.failf "no answer at sync latency %g" sync
  in
  Alcotest.(check bool) "no sync: under 1 ms" true (write_latency 0. < 1e-3);
  Alcotest.(check bool) "1 ms sync: at least 1 ms" true (write_latency 1e-3 >= 1e-3)

(* SMR over the lock server, which registers no timer, so every proposal
   in the run below comes from a submitted request. *)
let lock_smr cfg net rpc ~node ~paxos_store =
  Smr.create net rpc cfg ~node ~paxos_store (Apps.Lock_server.factory ())

(* The leader proposes while fewer than [pipeline_depth] of its
   instances are open.  Request [b] is submitted 10 us after [a], while
   [a]'s instance is open: at depth 2 it is proposed in the same virtual
   instant, at depth 1 it waits for [a]'s instance to commit, and the
   held proposal counts one [paxos/window_full]. *)
let proposes_while_instance_open () =
  let timeline depth =
    let cluster, leader = deploy ~pipeline_depth:depth lock_smr in
    let eng = R.Cluster.engine cluster in
    let s = R.Cluster.await_primary cluster in
    let proposals () = counter_sum eng "paxos/proposals" in
    let commits () = counter_sum eng "paxos/commits" in
    let window_full () = counter_sum eng "paxos/window_full" in
    let result = ref None and held = ref 0 in
    ignore
      (Engine.spawn eng ~node:leader (fun () ->
           let p0 = proposals () and c0 = commits () and w0 = window_full () in
           R.Log_server.submit s "CREATE /a 1" ignore;
           let with_a = proposals () - p0 in
           Engine.sleep 10e-6;
           R.Log_server.submit s "CREATE /b 2" ignore;
           let with_b = proposals () - p0 in
           held := window_full () - w0;
           (* poll each microsecond: [b]'s proposal against [a]'s commit *)
           let b_at = ref None and a_at = ref None in
           while !b_at = None || !a_at = None do
             if !b_at = None && proposals () >= p0 + 2 then b_at := Some (Engine.now ());
             if !a_at = None && commits () > c0 then a_at := Some (Engine.now ());
             Engine.sleep 1e-6
           done;
           result := Some (with_a, with_b, !b_at < !a_at)));
    R.Cluster.run_for cluster 0.01;
    (Option.get !result, !held)
  in
  Alcotest.(check (pair (triple int int bool) int))
    "depth 2: b proposed at once, before a commits" ((1, 2, true), 0) (timeline 2);
  Alcotest.(check (pair (triple int int bool) int))
    "depth 1: b waits for a's commit, held once" ((1, 1, false), 1) (timeline 1)

let suite =
  [
    Alcotest.test_case "golden smr run" `Quick
      (golden ~pipeline_depth:1 "smr" smr memcache_op
         "70bd3d5321ecdc34dc46557d762a5932");
    Alcotest.test_case "golden cbase run" `Quick
      (golden ~pipeline_depth:1 "cbase" (sched Sched.Exec.Cbase) memcache_op
         "2ace2600e8548219527c6e2b71beb5ac");
    Alcotest.test_case "golden early run" `Quick
      (golden ~pipeline_depth:1 "early" (sched Sched.Exec.Early) memcache_op
         "cef0595aa8d9bc120f391081575a43a2");
    Alcotest.test_case "golden smr run at depth 2" `Quick
      (golden ~pipeline_depth:2 "smr" smr memcache_op
         "10c1ee7e235e1a14c1151206f8128722");
    Alcotest.test_case "golden cbase run at depth 2" `Quick
      (golden ~pipeline_depth:2 "cbase" (sched Sched.Exec.Cbase) memcache_op
         "c84636556b465e7ae4d47d635b5305e1");
    Alcotest.test_case "golden early run at depth 2" `Quick
      (golden ~pipeline_depth:2 "early" (sched Sched.Exec.Early) memcache_op
         "4f42508dddbb34c5540afb724853a24b");
    Alcotest.test_case "golden smr run at the default depth" `Quick
      (golden "smr" smr memcache_op "5ce23c5242218ed607368c197d38829b");
    Alcotest.test_case "golden cbase run at the default depth" `Quick
      (golden "cbase" (sched Sched.Exec.Cbase) memcache_op "37b4cc2dd8c7863aeaca0100a44d8e57");
    Alcotest.test_case "golden early run at the default depth" `Quick
      (golden "early" (sched Sched.Exec.Early) memcache_op "652e779740631af6a9c74f0c93ca6dcd");
    Alcotest.test_case "golden eve run" `Quick
      (golden "eve" eve lock_op "7df23c54e62705eb2e1d83f6771c7d83");
    Alcotest.test_case "smr drops forged timer ticks" `Quick
      (forged_ticks_dropped smr);
    Alcotest.test_case "cbase drops forged timer ticks" `Quick
      (forged_ticks_dropped (sched Sched.Exec.Cbase));
    Alcotest.test_case "eve new leader recovers a lost verdict" `Quick
      eve_new_leader_recovers_lost_verdict;
    Alcotest.test_case "smr rolling restart" `Quick smr_rolling_restart;
    Alcotest.test_case "smr adds a replica under load" `Quick
      smr_add_replica_under_load;
    Alcotest.test_case "smr pays the paxos sync latency" `Quick
      smr_pays_sync_latency;
    Alcotest.test_case "smr proposes while an instance is open at depth 2" `Quick
      proposes_while_instance_open;
  ]
