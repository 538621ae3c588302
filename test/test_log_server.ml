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

type 's stack = {
  create :
    Net.t -> Rpc.t -> R.Config.t -> node:int -> paxos_store:Paxos.Store.t -> 's;
  start : 's -> unit;
  replay : 's -> unit;
  node : 's -> int;
  is_primary : 's -> bool;
  app_digest : 's -> string;
  session_table : 's -> R.Session.Table.t;
}

let smr =
  {
    create =
      (fun net rpc cfg ~node ~paxos_store ->
        Smr.create net rpc cfg ~node ~paxos_store (Apps.Memcache.factory ()));
    start = Smr.start;
    replay = Smr.replay;
    node = Smr.node;
    is_primary = Smr.is_primary;
    app_digest = Smr.app_digest;
    session_table = Smr.session_table;
  }

let sched mode =
  {
    create =
      (fun net rpc cfg ~node ~paxos_store ->
        Sched.Server.create net rpc cfg ~node ~paxos_store ~mode
          ~conflict:Sched.Conflict.kv (Apps.Memcache.factory ()));
    start = Sched.Server.start;
    replay = Sched.Server.replay;
    node = Sched.Server.node;
    is_primary = Sched.Server.is_primary;
    app_digest = Sched.Server.app_digest;
    session_table = Sched.Server.session_table;
  }

let lock_path req =
  match String.split_on_char ' ' req with
  | _ :: path :: _ -> [ path ]
  | _ -> []

let eve =
  {
    create =
      (fun net rpc cfg ~node ~paxos_store ->
        let ecfg =
          Eve.default_config ~workers:cfg.R.Config.workers
            ~replicas:cfg.R.Config.replicas ()
        in
        Eve.create net rpc ecfg ~node ~paxos_store ~conflict_keys:lock_path
          (Apps.Lock_server.factory ()));
    start = Eve.start;
    replay = Eve.replay;
    node = Eve.node;
    is_primary = Eve.is_primary;
    app_digest = Eve.app_digest;
    session_table = Eve.session_table;
  }

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
  let eng = Engine.create ~seed:7 ~cores_per_node:8 ~num_nodes:4 () in
  let net = Net.create eng in
  let rpc = Rpc.create net in
  let replicas = [ 0; 1; 2 ] in
  let cfg = R.Config.make ~workers:4 ~replicas () in
  let stores = Array.init 3 (fun _ -> Paxos.Store.create ()) in
  let mk i = stack.create net rpc cfg ~node:i ~paxos_store:stores.(i) in
  let servers = Array.init 3 mk in
  Array.iter stack.start servers;
  Engine.run ~until:1.0 eng;
  let leader () =
    Array.to_list servers
    |> List.find_opt (fun s ->
           Engine.node_alive eng (stack.node s) && stack.is_primary s)
    |> Option.map stack.node
  in
  let answers = Buffer.create 4096 in
  for c = 0 to 2 do
    ignore
      (Engine.spawn eng ~node:3 ~name:"golden.client" (fun () ->
           let cl = R.Client.create rpc ~me:3 ~replicas in
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
  let first_leader = Option.get (leader ()) in
  let follower = if first_leader = 0 then 1 else 0 in
  (* Rolling upgrade: a replacement server over the same Paxos store
     rebuilds app and session state by replaying the committed log. *)
  Engine.schedule eng ~at:1.05 (fun () ->
      Engine.crash_node eng follower;
      Engine.restart_node eng follower;
      let s = mk follower in
      stack.replay s;
      stack.start s;
      servers.(follower) <- s);
  Engine.schedule eng ~at:1.1 (fun () -> Engine.crash_node eng first_leader);
  Engine.run ~until:3.0 eng;
  let b = Buffer.create 4096 in
  Buffer.add_buffer b answers;
  Array.iter
    (fun s ->
      Printf.bprintf b "node %d app %s session %s\n" (stack.node s)
        (stack.app_digest s)
        (R.Session.Table.digest (stack.session_table s)))
    servers;
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
  let eng = Engine.create ~seed:7 ~cores_per_node:8 ~num_nodes:4 () in
  let net = Net.create eng in
  let rpc = Rpc.create net in
  let cfg = R.Config.make ~workers:4 ~replicas:[ 0; 1; 2 ] () in
  let servers =
    Array.init 3 (fun i ->
        stack.create net rpc cfg ~node:i ~paxos_store:(Paxos.Store.create ()))
  in
  Array.iter stack.start servers;
  Engine.run ~until:1.0 eng;
  let leader =
    stack.node (Option.get (Array.find_opt stack.is_primary servers))
  in
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
