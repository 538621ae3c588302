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
   pinned value changes only when the simulated behaviour is meant to. *)

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

let deploy stack =
  let replicas = [ 0; 1; 2 ] in
  let cfg = R.Config.make ~workers:4 ~replicas () in
  let cluster = R.Log_cluster.create ~seed:7 ~replicas (stack cfg) in
  R.Log_cluster.start cluster;
  let leader = R.Log_server.node (R.Log_cluster.await_primary cluster) in
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

let golden_digest stack op =
  let cluster, first_leader = deploy stack in
  let eng = R.Log_cluster.engine cluster in
  let answers = Buffer.create 4096 in
  for c = 0 to 2 do
    ignore
      (Engine.spawn eng ~node:3 ~name:"golden.client" (fun () ->
           let cl = R.Log_cluster.client cluster in
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
      R.Log_cluster.upgrade cluster follower);
  Engine.schedule eng ~at:1.1 (fun () -> Engine.crash_node eng first_leader);
  Engine.run ~until:3.0 eng;
  let b = Buffer.create 4096 in
  Buffer.add_buffer b answers;
  Array.iter
    (fun s ->
      Printf.bprintf b "node %d app %s session %s\n" (R.Log_server.node s)
        (R.Log_server.app_digest s)
        (R.Session.Table.digest (R.Log_server.session_table s)))
    (R.Log_cluster.servers cluster);
  Printf.bprintf b "clock %h\n" (Engine.clock eng);
  List.iter
    (fun c -> Printf.bprintf b "%s %d\n" c (counter_sum eng c))
    [ "paxos/commits"; "net/messages"; "net/bytes"; "sim/events_dispatched" ];
  Digest.to_hex (Digest.string (Buffer.contents b))

let golden name stack op expected () =
  Alcotest.(check string) (name ^ " digest") expected (golden_digest stack op)

(* Timer ticks travel through the log as "\x00TIMER:<index>" requests.
   A client that sends those bytes itself must be answered [Dropped]:
   neither a malformed index (which once raised out of the executor and
   stopped the whole simulation) nor a valid one (which ran the app's
   timer out of schedule and never answered) may reach the log. *)
let forged_ticks_dropped stack () =
  let cluster, leader = deploy stack in
  let eng = R.Log_cluster.engine cluster in
  let rpc = R.Log_cluster.rpc cluster in
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

let suite =
  [
    Alcotest.test_case "golden smr run" `Quick
      (golden "smr" smr memcache_op "f5a4afb2450ed6ff37b0e99159fb55dd");
    Alcotest.test_case "golden cbase run" `Quick
      (golden "cbase" (sched Sched.Exec.Cbase) memcache_op
         "225221217c55dbfad76a35ecccacf974");
    Alcotest.test_case "golden early run" `Quick
      (golden "early" (sched Sched.Exec.Early) memcache_op
         "502b4fb25807a83bfadb75999dbf1b87");
    Alcotest.test_case "golden eve run" `Quick
      (golden "eve" eve lock_op "d75cfab665e70203f69ddf3d36eb5dc0");
    Alcotest.test_case "smr drops forged timer ticks" `Quick
      (forged_ticks_dropped smr);
    Alcotest.test_case "cbase drops forged timer ticks" `Quick
      (forged_ticks_dropped (sched Sched.Exec.Cbase));
    Alcotest.test_case "eve new leader recovers a lost verdict" `Quick
      eve_new_leader_recovers_lost_verdict;
  ]
