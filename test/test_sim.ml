(* Tests for the discrete-event engine, synchronization primitives,
   network and RPC. *)

open Sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let run_sim ?(seed = 1) ?(cores = 4) ?(nodes = 1) f =
  let eng = Engine.create ~seed ~cores_per_node:cores ~num_nodes:nodes () in
  f eng;
  Engine.run eng;
  eng

(* --- Engine basics --- *)

let work_advances_time () =
  let finished = ref 0. in
  let eng =
    run_sim (fun eng ->
        ignore
          (Engine.spawn eng ~node:0 (fun () ->
               Engine.work 1.0;
               Engine.work 0.5;
               finished := Engine.now ())))
  in
  Alcotest.(check bool) "took 1.5s" true (abs_float (!finished -. 1.5) < 1e-6);
  Alcotest.(check bool)
    "busy time" true
    (abs_float (Engine.busy_time eng 0 -. 1.5) < 1e-6)

let cores_limit_parallelism () =
  (* 8 fibers x 1s of work on 4 cores must take ~2s. *)
  let finish = ref 0. in
  ignore
    (run_sim ~cores:4 (fun eng ->
         for _ = 1 to 8 do
           ignore
             (Engine.spawn eng ~node:0 (fun () ->
                  Engine.work 1.0;
                  finish := Float.max !finish (Engine.now ())))
         done));
  Alcotest.(check bool)
    (Printf.sprintf "8x1s on 4 cores ends at ~2s (got %f)" !finish)
    true
    (abs_float (!finish -. 2.0) < 1e-3)

let sleep_needs_no_core () =
  (* Sleepers do not occupy cores: 8 sleepers + 1 worker on 1 core finish
     together at ~1s. *)
  let finish = ref 0. in
  ignore
    (run_sim ~cores:1 (fun eng ->
         for _ = 1 to 8 do
           ignore
             (Engine.spawn eng ~node:0 (fun () ->
                  Engine.sleep 1.0;
                  finish := Float.max !finish (Engine.now ())))
         done;
         ignore
           (Engine.spawn eng ~node:0 (fun () ->
                Engine.work 1.0;
                finish := Float.max !finish (Engine.now ())))));
  Alcotest.(check bool) "ends ~1s" true (abs_float (!finish -. 1.0) < 1e-3)

let park_wake () =
  let log = ref [] in
  ignore
    (run_sim (fun eng ->
         let saved = ref None in
         ignore
           (Engine.spawn eng ~node:0 (fun () ->
                log := "parking" :: !log;
                Engine.park (fun w -> saved := Some w);
                log := "woken" :: !log));
         ignore
           (Engine.spawn eng ~node:0 (fun () ->
                Engine.sleep 1.0;
                match !saved with
                | Some w ->
                  Engine.wake w;
                  Engine.wake w (* double wake is harmless *)
                | None -> Alcotest.fail "waker not registered"))));
  Alcotest.(check (list string)) "order" [ "woken"; "parking" ] !log

let run_until_slices () =
  let eng = Engine.create ~num_nodes:1 () in
  let ticks = ref 0 in
  ignore
    (Engine.spawn eng ~node:0 (fun () ->
         for _ = 1 to 10 do
           Engine.sleep 1.0;
           incr ticks
         done));
  Engine.run ~until:3.5 eng;
  check_int "3 ticks at t=3.5" 3 !ticks;
  Engine.run ~until:10.5 eng;
  check_int "all ticks" 10 !ticks

let determinism_same_seed () =
  let trace_of seed =
    let log = ref [] in
    ignore
      (run_sim ~seed ~cores:2 (fun eng ->
           for i = 1 to 6 do
             ignore
               (Engine.spawn eng ~node:0 (fun () ->
                    Engine.work 0.1;
                    log := i :: !log))
           done));
    !log
  in
  Alcotest.(check (list int)) "same seed, same order" (trace_of 7) (trace_of 7);
  (* Different seeds typically yield different interleavings; do not assert
     inequality (it is not guaranteed), just that both complete. *)
  check_int "all ran" 6 (List.length (trace_of 8))

let crash_kills_fibers () =
  let eng = Engine.create ~num_nodes:2 () in
  let cleanup_ran = ref false in
  let survived = ref false in
  ignore
    (Engine.spawn eng ~node:0 (fun () ->
         Fun.protect
           ~finally:(fun () -> cleanup_ran := true)
           (fun () ->
             Engine.sleep 100.;
             survived := true)));
  ignore
    (Engine.spawn eng ~node:1 (fun () ->
         Engine.sleep 1.0;
         Engine.crash_node eng 0));
  Engine.run eng;
  check_bool "fiber did not survive" false !survived;
  check_bool "Fun.protect cleanup ran" true !cleanup_ran;
  check_bool "node marked dead" false (Engine.node_alive eng 0)

let restart_allows_new_fibers () =
  let eng = Engine.create ~num_nodes:1 () in
  let ran_after_restart = ref false in
  ignore
    (Engine.spawn eng ~node:0 (fun () -> Engine.sleep 1000.));
  Engine.run ~until:1.0 eng;
  Engine.crash_node eng 0;
  Engine.restart_node eng 0;
  ignore (Engine.spawn eng ~node:0 (fun () -> ran_after_restart := true));
  Engine.run eng;
  check_bool "new fiber ran" true !ran_after_restart

(* [now] answers for the engine whose fiber is running, even when one
   engine's fiber drives another engine's fibers directly, and outside
   any fiber it still raises as an unhandled effect. *)
let now_follows_running_engine () =
  let a = Engine.create ~num_nodes:1 () and b = Engine.create ~num_nodes:1 () in
  let seen = ref [] in
  let record who = seen := (who, Engine.now ()) :: !seen in
  ignore
    (Engine.spawn b ~node:0 (fun () ->
         Engine.sleep 5.0;
         record "b"));
  Engine.run ~until:2.0 b;
  ignore
    (Engine.spawn a ~node:0 (fun () ->
         Engine.sleep 1.0;
         record "a";
         Engine.spawn_immediate b ~node:0 (fun () -> record "b-inside-a");
         record "a-again"));
  Engine.run a;
  Engine.run b;
  Alcotest.(check (list (pair string (float 1e-6))))
    "each fiber sees its own engine's clock"
    [ ("a", 1.0); ("b-inside-a", 2.0); ("a-again", 1.0); ("b", 5.0) ]
    (List.rev !seen);
  match Engine.now () with
  | _ -> Alcotest.fail "now outside a fiber must not answer"
  | exception Effect.Unhandled _ -> ()

(* --- Msync --- *)

let mutex_exclusion () =
  let inside = ref 0 and max_inside = ref 0 and total = ref 0 in
  ignore
    (run_sim ~cores:8 (fun eng ->
         let m = Msync.Mutex.create eng in
         for _ = 1 to 20 do
           ignore
             (Engine.spawn eng ~node:0 (fun () ->
                  Msync.Mutex.lock m;
                  incr inside;
                  max_inside := max !max_inside !inside;
                  Engine.work 0.01;
                  decr inside;
                  incr total;
                  Msync.Mutex.unlock m))
         done));
  check_int "mutual exclusion" 1 !max_inside;
  check_int "all critical sections ran" 20 !total

let mutex_try_lock () =
  ignore
    (run_sim (fun eng ->
         let m = Msync.Mutex.create eng in
         ignore
           (Engine.spawn eng ~node:0 (fun () ->
                check_bool "first try succeeds" true (Msync.Mutex.try_lock m);
                check_bool "second try fails" false (Msync.Mutex.try_lock m);
                Msync.Mutex.unlock m;
                check_bool "after unlock succeeds" true (Msync.Mutex.try_lock m);
                Msync.Mutex.unlock m))))

let mutex_unlock_not_holder () =
  ignore
    (run_sim (fun eng ->
         let m = Msync.Mutex.create eng in
         ignore
           (Engine.spawn eng ~node:0 (fun () ->
                match Msync.Mutex.unlock m with
                | exception Invalid_argument _ -> ()
                | () -> Alcotest.fail "unlock without holding must raise"))))

let cond_signal_wakes_one () =
  let woken = ref 0 in
  ignore
    (run_sim (fun eng ->
         let m = Msync.Mutex.create eng in
         let c = Msync.Cond.create eng in
         for _ = 1 to 3 do
           ignore
             (Engine.spawn eng ~node:0 (fun () ->
                  Msync.Mutex.lock m;
                  Msync.Cond.wait c m;
                  incr woken;
                  Msync.Mutex.unlock m))
         done;
         ignore
           (Engine.spawn eng ~node:0 (fun () ->
                Engine.sleep 1.0;
                Msync.Mutex.lock m;
                Msync.Cond.signal c;
                Msync.Mutex.unlock m;
                Engine.sleep 1.0;
                Msync.Mutex.lock m;
                Msync.Cond.broadcast c;
                Msync.Mutex.unlock m))));
  check_int "1 + 2 woken" 3 !woken

let rwlock_readers_share () =
  let concurrent_readers = ref 0 and max_readers = ref 0 in
  let writer_alone = ref true in
  ignore
    (run_sim ~cores:8 (fun eng ->
         let l = Msync.Rwlock.create eng in
         for _ = 1 to 5 do
           ignore
             (Engine.spawn eng ~node:0 (fun () ->
                  Msync.Rwlock.rd_lock l;
                  incr concurrent_readers;
                  max_readers := max !max_readers !concurrent_readers;
                  Engine.work 0.1;
                  decr concurrent_readers;
                  Msync.Rwlock.rd_unlock l))
         done;
         ignore
           (Engine.spawn eng ~node:0 (fun () ->
                Msync.Rwlock.wr_lock l;
                if !concurrent_readers > 0 then writer_alone := false;
                Engine.work 0.1;
                Msync.Rwlock.wr_unlock l))));
  check_bool "readers overlapped" true (!max_readers > 1);
  check_bool "writer excluded readers" true !writer_alone

let sem_counting () =
  let inside = ref 0 and max_inside = ref 0 in
  ignore
    (run_sim ~cores:8 (fun eng ->
         let s = Msync.Sem.create eng 2 in
         for _ = 1 to 10 do
           ignore
             (Engine.spawn eng ~node:0 (fun () ->
                  Msync.Sem.acquire s;
                  incr inside;
                  max_inside := max !max_inside !inside;
                  Engine.work 0.05;
                  decr inside;
                  Msync.Sem.release s))
         done));
  check_int "at most 2 inside" 2 !max_inside

(* --- Net / Timer / Rpc --- *)

let net_delivery () =
  let got = ref None in
  ignore
    (run_sim ~nodes:2 (fun eng ->
         let net = Net.create eng in
         Net.register net ~node:1 ~port:(Net.port "echo") (fun ~src payload ->
             got := Some (src, payload));
         ignore
           (Engine.spawn eng ~node:0 (fun () ->
                Net.send net ~src:0 ~dst:1 ~port:(Net.port "echo") "hi"))));
  Alcotest.(check (option (pair int string))) "delivered" (Some (0, "hi")) !got

let net_partition_drops () =
  let got = ref 0 in
  ignore
    (run_sim ~nodes:2 (fun eng ->
         let net = Net.create eng in
         Net.register net ~node:1 ~port:(Net.port "p") (fun ~src:_ _ -> incr got);
         let metrics () = Obs.Export.metrics_json (Obs.registry (Engine.obs eng)) in
         let before = metrics () in
         Net.partition net 0 1;
         Alcotest.(check string) "partitioning an idle pair registers no metrics"
           before (metrics ());
         ignore
           (Engine.spawn eng ~node:0 (fun () ->
                Net.send net ~src:0 ~dst:1 ~port:(Net.port "p") "x";
                Engine.sleep 1.0;
                Net.heal net 0 1;
                Net.send net ~src:0 ~dst:1 ~port:(Net.port "p") "y"))));
  check_int "only post-heal message" 1 !got

let net_fifo_per_pair () =
  let order = ref [] in
  ignore
    (run_sim ~nodes:2 (fun eng ->
         let net = Net.create eng in
         Net.register net ~node:1 ~port:(Net.port "f") (fun ~src:_ p ->
             order := p :: !order);
         ignore
           (Engine.spawn eng ~node:0 (fun () ->
                for i = 1 to 10 do
                  Net.send net ~src:0 ~dst:1 ~port:(Net.port "f") (string_of_int i)
                done))));
  Alcotest.(check (list string))
    "FIFO order"
    (List.map string_of_int [ 10; 9; 8; 7; 6; 5; 4; 3; 2; 1 ])
    !order

let net_crashed_node_drops () =
  let got = ref 0 in
  ignore
    (run_sim ~nodes:2 (fun eng ->
         let net = Net.create eng in
         Net.register net ~node:1 ~port:(Net.port "c") (fun ~src:_ _ -> incr got);
         Engine.crash_node eng 1;
         ignore
           (Engine.spawn eng ~node:0 (fun () ->
                Net.send net ~src:0 ~dst:1 ~port:(Net.port "c") "x"))));
  check_int "no delivery to dead node" 0 !got

(* A delivery runs in a fiber whose tid is minted on arrival, but the
   engine lists it among its suspended fibers only once it suspends: a
   handler that runs to completion leaves the list as it was, and the
   handlers that park are killed by a crash in tid order. *)
let net_handler_fibers () =
  let eng = Engine.create ~num_nodes:2 () in
  let net = Net.create eng in
  let port = Net.port "h" in
  let parked = ref [] and killed = ref [] and listed = ref [] in
  Net.register net ~node:1 ~port (fun ~src:_ p ->
      if p = "park" then begin
        let me = Engine.self () in
        parked := me :: !parked;
        try Engine.park (fun _ -> ()) with Engine.Killed -> killed := me :: !killed
      end
      else listed := (Engine.suspended_fibers eng, List.length !parked) :: !listed);
  ignore
    (Engine.spawn eng ~node:0 (fun () ->
         List.iter
           (Net.send net ~src:0 ~dst:1 ~port)
           [ "park"; "run"; "park"; "run"; "park" ]));
  Engine.run ~until:1.0 eng;
  check_int "only the parked handlers are listed" 3 (Engine.suspended_fibers eng);
  Alcotest.(check (list (pair int int)))
    "a running handler is not listed" [ (2, 2); (1, 1) ] !listed;
  Engine.crash_node eng 1;
  Engine.run eng;
  let tids = List.rev !parked in
  Alcotest.(check (list int)) "killed in tid order" tids (List.rev !killed);
  Alcotest.(check (list int)) "tids ascend" (List.sort compare tids) tids;
  check_int "none left" 0 (Engine.suspended_fibers eng)

(* A message to a node id the engine has not added yet is dropped, even
   with a handler registered for that id; once the node is added, the
   next message gets through. *)
let net_drops_to_unadded_node () =
  let eng = Engine.create ~seed:1 ~num_nodes:3 () in
  let net = Net.create eng in
  let port = Net.port "c" in
  let got = ref [] in
  Net.register net ~node:3 ~port (fun ~src:_ m -> got := m :: !got);
  Net.send net ~src:0 ~dst:3 ~port "early";
  Engine.run eng;
  Alcotest.(check (list string)) "dropped before add_node" [] !got;
  check_int "new node id" 3 (Engine.add_node eng);
  Net.send net ~src:0 ~dst:3 ~port "late";
  Engine.run eng;
  Alcotest.(check (list string)) "delivered after add_node" [ "late" ] !got

let rpc_roundtrip () =
  let answer = ref None in
  ignore
    (run_sim ~nodes:2 (fun eng ->
         let net = Net.create eng in
         let rpc = Rpc.create net in
         Rpc.serve rpc ~node:1 ~port:(Net.port "double") (fun ~src:_ s ->
             string_of_int (2 * int_of_string s));
         ignore
           (Engine.spawn eng ~node:0 (fun () ->
                answer := Rpc.call rpc ~src:0 ~dst:1 ~port:(Net.port "double") "21"))));
  Alcotest.(check (option string)) "rpc reply" (Some "42") !answer

let rpc_timeout () =
  let answer = ref (Some "sentinel") in
  let finish = ref 0. in
  ignore
    (run_sim ~nodes:2 (fun eng ->
         let net = Net.create eng in
         let rpc = Rpc.create net in
         (* No handler registered on node 1: the call must time out. *)
         ignore
           (Engine.spawn eng ~node:0 (fun () ->
                answer := Rpc.call rpc ~src:0 ~dst:1 ~port:(Net.port "void") ~timeout:0.5 "x";
                finish := Engine.now ()))));
  Alcotest.(check (option string)) "timed out" None !answer;
  check_bool "timed out at ~0.5s" true (abs_float (!finish -. 0.5) < 0.01)

(* Hostile frames: a truncation, or a body-length byte changed to another
   length below 64 (the frame then ends early or has trailing bytes). *)
type mangle = Truncate of int | Bad_length of int

let mangle frame = function
  | Truncate k -> String.sub frame 0 (k mod String.length frame)
  | Bad_length mask ->
    (* The body length follows the call id's varint. *)
    let i = ref 0 in
    while Char.code frame.[!i] >= 0x80 do
      incr i
    done;
    let b = Bytes.of_string frame in
    Bytes.set b (!i + 1) (Char.chr (Char.code frame.[!i + 1] lxor mask));
    Bytes.to_string b

(* Each call goes to a raw tap on node 1, which sees the real request
   frame.  The tap forwards it to the served port intact or mangled, or
   answers with a mangled copy (the frame is also a valid reply: the
   same id and the request body).  A mangled frame must be dropped and
   counted, never raised out of [Engine.run], and its caller must time
   out while every other call is served. *)
let prop_rpc_drops_malformed_frames =
  QCheck.Test.make ~name:"rpc drops and counts malformed frames" ~count:100
    QCheck.(
      list_of_size Gen.(int_range 1 20)
        (pair (int_range 0 2)
           (oneof
              [
                map (fun k -> Truncate k) small_nat;
                map (fun m -> Bad_length m) (int_range 1 63);
              ])))
    (fun plan ->
      let plan = Array.of_list plan in
      let eng = Engine.create ~seed:5 ~num_nodes:2 () in
      let net = Net.create eng in
      let rpc = Rpc.create net in
      let svc = Net.port "svc" in
      let served = ref 0 in
      Rpc.serve rpc ~node:1 ~port:svc (fun ~src:_ body ->
          incr served;
          "ok:" ^ body);
      let next = ref 0 in
      Net.register net ~node:1 ~port:(Net.port "tap") (fun ~src frame ->
          let kind, m = plan.(!next) in
          incr next;
          match kind with
          | 0 -> Net.send net ~src ~dst:1 ~port:svc frame
          | 1 -> Net.send net ~src ~dst:1 ~port:svc (mangle frame m)
          | _ ->
            Net.send net ~src:1 ~dst:src ~port:(Net.port "rpc.reply") (mangle frame m));
      let answers = ref [] in
      ignore
        (Engine.spawn eng ~node:0 (fun () ->
             Array.iteri
               (fun i _ ->
                 let body = Printf.sprintf "b%d" i in
                 answers :=
                   Rpc.call rpc ~src:0 ~dst:1 ~port:(Net.port "tap") ~timeout:1e-2 body
                   :: !answers)
               plan));
      Engine.run eng;
      let mangled = Array.fold_left (fun n (k, _) -> if k = 0 then n else n + 1) 0 plan in
      let errors =
        match
          Obs.Registry.find (Obs.registry (Engine.obs eng)) ~subsystem:"rpc"
            "decode_errors"
        with
        | Some (Obs.Registry.Counter c) -> Obs.Metric.value c
        | _ -> 0
      in
      List.rev !answers
      = Array.to_list
          (Array.mapi
             (fun i (k, _) -> if k = 0 then Some (Printf.sprintf "ok:b%d" i) else None)
             plan)
      && errors = mangled
      && !served = Array.length plan - mangled)

(* --- Golden substrate run ---

   One fixed-seed 4-node scenario through every substrate path whose cost
   is tuned: jittered Net traffic, partitions and heals, random loss, Rpc
   timeouts, CPU contention on [work], and a crash that kills parked,
   sleeping and core-queued fibers.  The digest covers the (virtual time,
   event) log, the exported metrics registry and the span trace, so any
   change to event order, RNG draws, wire bytes or metric registration
   shows up here.  The pinned value must only change when the simulated
   behaviour is meant to change. *)

(* The scenario's event log and the exported registry; with [~slice] the
   engine runs in [~until] slices of that width, as [perf.exe] drives
   it, before the final drain. *)
let golden_scenario ?slice () =
  let eng = Engine.create ~seed:11 ~cores_per_node:2 ~num_nodes:4 () in
  let obs = Engine.obs eng in
  Obs.enable_tracing obs true;
  let log = Buffer.create 4096 in
  let note fmt =
    Printf.ksprintf
      (fun s -> Printf.bprintf log "%h %s\n" (Engine.clock eng) s)
      fmt
  in
  let net = Net.create eng in
  let rpc = Rpc.create net in
  (* Node 1: a CPU-bound service on 2 cores, so concurrent calls queue. *)
  Rpc.serve rpc ~node:1 ~port:(Net.port "svc") (fun ~src body ->
      Engine.work 2e-4;
      note "svc %d %s" src body;
      "ok:" ^ body);
  (* Node 2: replies in time, too late (after the caller's timeout) or
     never, by the request's last digit. *)
  Rpc.serve_async rpc ~node:2 ~port:(Net.port "slow") (fun ~src body ~reply ->
      note "slow %d %s" src body;
      match Char.code body.[String.length body - 1] mod 3 with
      | 0 -> ()
      | 1 ->
        Engine.sleep 1e-3;
        reply body
      | _ ->
        Engine.sleep 3e-3;
        reply body);
  for node = 0 to 3 do
    Net.register net ~node ~port:(Net.port "gossip") (fun ~src payload ->
        note "gossip %d->%d %s" src node payload)
  done;
  let caller node dst port n =
    ignore
      (Engine.spawn eng ~node ~name:"caller" (fun () ->
           for i = 1 to n do
             let body = Printf.sprintf "%d.%d" node i in
             (match Rpc.call rpc ~src:node ~dst ~port:(Net.port port) ~timeout:2e-3 body with
             | Some r -> note "reply %d %s" node r
             | None -> note "timeout %d %s" node body);
             Engine.sleep 5e-4
           done))
  in
  caller 0 1 "svc" 30;
  caller 3 1 "svc" 30;
  caller 0 2 "slow" 10;
  caller 3 2 "slow" 10;
  ignore
    (Engine.spawn eng ~node:3 ~name:"gossiper" (fun () ->
         for i = 1 to 60 do
           Net.send net ~src:3 ~dst:(i mod 4) ~port:(Net.port "gossip") (string_of_int i);
           Engine.sleep 3e-4
         done));
  (* Node 2 hosts fibers in every suspended state when it crashes:
     parked, sleeping, holding a core and queued for one. *)
  let victim name body =
    ignore
      (Engine.spawn eng ~node:2 ~name (fun () ->
           match body () with
           | () -> note "%s finished" name
           | exception Engine.Killed ->
             note "%s killed" name;
             raise Engine.Killed))
  in
  victim "parked" (fun () -> Engine.park (fun _ -> ()));
  victim "sleeper" (fun () -> Engine.sleep 1.0);
  for i = 1 to 5 do
    victim (Printf.sprintf "worker%d" i) (fun () -> Engine.work 8e-3)
  done;
  let at time f = Engine.schedule eng ~at:time f in
  at 4e-3 (fun () -> note "partition 0 1"; Net.partition net 0 1);
  at 7e-3 (fun () -> note "heal 0 1"; Net.heal net 0 1);
  at 9e-3 (fun () ->
      note "partition 3 1, 3 2";
      Net.partition net 3 1;
      Net.partition net 3 2;
      Net.set_drop_probability net 0.2);
  at 1.2e-2 (fun () -> note "crash 2"; Engine.crash_node eng 2);
  at 1.4e-2 (fun () ->
      note "heal_all";
      Net.heal_all net;
      Net.set_drop_probability net 0.);
  at 1.6e-2 (fun () ->
      note "restart 2";
      Engine.restart_node eng 2;
      victim "reborn" (fun () -> Engine.work 1e-4));
  Option.iter
    (fun w ->
      for k = 1 to int_of_float (0.1 /. w) do
        Engine.run ~until:(float_of_int k *. w) eng
      done)
    slice;
  Engine.run eng;
  note "end: sent %d bytes %d dropped %d" (Net.messages_sent net)
    (Net.bytes_sent net) (Net.messages_dropped net);
  (Buffer.contents log, obs)

let golden_digest ?slice () =
  let log, obs = golden_scenario ?slice () in
  Digest.to_hex
    (Digest.string
       (String.concat "\n--\n"
          [
            log;
            Obs.Export.metrics_json (Obs.registry obs);
            Obs.Export.chrome_trace (Obs.spans obs);
          ]))

let golden = "826e9789af0feb40a0509e3983825006"

let golden_substrate_run () =
  Alcotest.(check string) "digest" golden (golden_digest ())

let sim_metric obs name =
  match Obs.Registry.find (Obs.registry obs) ~subsystem:"sim" name with
  | Some (Obs.Registry.Counter c) -> float_of_int (Obs.Metric.value c)
  | Some (Obs.Registry.Gauge g) -> Obs.Metric.get g
  | _ -> Alcotest.failf "no sim/%s" name

(* The engine keeps its depth gauges in ints and publishes them when
   [run] returns, so a run cut into [~until] slices must leave the same
   callback order and the same counts as one run to the end. *)
let golden_run_in_slices () =
  let whole_log, whole = golden_scenario () in
  List.iter
    (fun w ->
      let log, sliced = golden_scenario ~slice:w () in
      Alcotest.(check string) (Printf.sprintf "log, %g s slices" w) whole_log log;
      List.iter
        (fun name ->
          Alcotest.(check (float 0.))
            (Printf.sprintf "sim/%s, %g s slices" name w)
            (sim_metric whole name) (sim_metric sliced name))
        [ "events_dispatched"; "ready_events"; "ready_events_max" ];
      Alcotest.(check string) (Printf.sprintf "digest, %g s slices" w) golden
        (golden_digest ~slice:w ()))
    [ 1e-5; 3.7e-4; 2e-3 ]

(* --- Pqueue and Rng --- *)

let pqueue_order () =
  let q = Pqueue.create () in
  Pqueue.add q ~priority:3.0 "c";
  Pqueue.add q ~priority:1.0 "a1";
  Pqueue.add q ~priority:2.0 "b";
  Pqueue.add q ~priority:1.0 "a2";
  let rec drain acc =
    if Pqueue.is_empty q then List.rev acc
    else
      let p = Pqueue.min_priority q in
      let v = Pqueue.pop_value q in
      drain ((p, v) :: acc)
  in
  Alcotest.(check (list (pair (float 0.) string)))
    "priority then insertion order"
    [ (1.0, "a1"); (1.0, "a2"); (2.0, "b"); (3.0, "c") ]
    (drain []);
  check_bool "drained" true (Pqueue.is_empty q);
  Alcotest.check_raises "pop on empty" (Invalid_argument "Pqueue.pop_value: empty")
    (fun () -> ignore (Pqueue.pop_value q))

(* Model check: random interleavings of adds and pops, most drawn from a
   few priorities so ties are common, against a reference list kept
   sorted by (priority, insertion seq).  [Some p] adds at priority p,
   [None] pops. *)
let pqueue_matches_model ops =
  let q = Pqueue.create () in
  let model = ref [] and seq = ref 0 in
  let pop () =
    match !model with
    | [] -> Pqueue.is_empty q
    | (p, s) :: rest ->
      model := rest;
      (not (Pqueue.is_empty q))
      && Pqueue.min_priority q = p
      && Pqueue.pop_value q = s
  in
  List.for_all
    (function
      | Some p ->
        Pqueue.add q ~priority:p !seq;
        model := List.merge compare !model [ (p, !seq) ];
        incr seq;
        Pqueue.length q = List.length !model
      | None -> pop ())
    ops
  && List.for_all (fun _ -> pop ()) !model
  && Pqueue.is_empty q

let pqueue_priority =
  QCheck.(
    frequency [ (3, map float_of_int (int_range 0 4)); (1, float_range 0. 1000.) ])

(* Mostly adds, with lengths up to thousands of operations: deep heaps
   that cross every capacity doubling to 16 k. *)
let prop_pqueue_model =
  QCheck.Test.make ~name:"pqueue matches priority-seq model" ~count:300
    QCheck.(list (option pqueue_priority))
    pqueue_matches_model

(* Two adds per pop over up to 600 operations: the queue crosses several
   capacity doublings (16, 32, 64, 128) with pops in between, so freed
   value slots are reused at every size. *)
let prop_pqueue_model_churn =
  QCheck.Test.make ~name:"pqueue matches model, pops interleaved" ~count:300
    QCheck.(
      list_of_size Gen.(int_range 0 600)
        (frequency [ (2, map Option.some pqueue_priority); (1, always None) ]))
    pqueue_matches_model

(* [remove] interleaved with adds and pops: [`Add p] adds by handle,
   [`Pop] pops, [`Remove k] removes the k-th entry ever added (mod the
   count), which may already be gone: a stale handle, possibly to a slot
   a newer entry now holds, must remove nothing.  Survivors pop in
   (priority, seq) order. *)
let pqueue_remove_matches_model ops =
  let q = Pqueue.create () in
  let model = ref [] and handles = ref [||] and seq = ref 0 in
  let pop () =
    match !model with
    | [] -> Pqueue.is_empty q
    | (p, s) :: rest ->
      model := rest;
      (not (Pqueue.is_empty q))
      && Pqueue.min_priority q = p
      && Pqueue.pop_value q = s
  in
  List.for_all
    (function
      | `Add p ->
        let h = Pqueue.add_handle q ~priority:p !seq in
        handles := Array.append !handles [| h |];
        model := List.merge compare !model [ (p, !seq) ];
        incr seq;
        Pqueue.length q = List.length !model
      | `Pop -> pop ()
      | `Remove k ->
        let n = Array.length !handles in
        if n > 0 then begin
          let k = k mod n in
          Pqueue.remove q !handles.(k);
          model := List.filter (fun (_, s) -> s <> k) !model
        end;
        Pqueue.length q = List.length !model)
    ops
  && List.for_all (fun _ -> pop ()) !model
  && Pqueue.is_empty q

let prop_pqueue_remove =
  QCheck.Test.make ~name:"pqueue remove by handle matches model" ~count:300
    QCheck.(
      list_of_size Gen.(int_range 0 600)
        (frequency
           [ (3, map (fun p -> `Add p) pqueue_priority);
             (1, always `Pop);
             (2, map (fun k -> `Remove k) small_nat) ]))
    pqueue_remove_matches_model

(* A popped value must not stay reachable from the queue, including the
   last one, whose slot nothing else overwrites. *)
let pqueue_releases_popped () =
  let q = Pqueue.create () in
  let collected = ref 0 in
  let add priority =
    let v = ref 0 in
    Gc.finalise (fun _ -> incr collected) v;
    Pqueue.add q ~priority v
  in
  add 1.;
  add 2.;
  for _ = 1 to 2 do
    ignore (Sys.opaque_identity (Pqueue.pop_value q))
  done;
  Gc.full_major ();
  check_int "both popped values collected" 2 !collected;
  check_bool "queue still live and empty" true (Pqueue.is_empty q)

let rng_deterministic () =
  let a = Rng.create 5 and b = Rng.create 5 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Rng.bits64 a = Rng.bits64 b)
  done;
  let c = Rng.split a and d = Rng.split b in
  check_bool "split streams agree" true (Rng.bits64 c = Rng.bits64 d)

let prop_rng_bounds =
  QCheck.Test.make ~name:"rng int respects bound" ~count:200
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

let suite =
  [
    Alcotest.test_case "work advances virtual time" `Quick work_advances_time;
    Alcotest.test_case "cores limit parallelism" `Quick cores_limit_parallelism;
    Alcotest.test_case "sleep needs no core" `Quick sleep_needs_no_core;
    Alcotest.test_case "park/wake" `Quick park_wake;
    Alcotest.test_case "run in slices" `Quick run_until_slices;
    Alcotest.test_case "determinism per seed" `Quick determinism_same_seed;
    Alcotest.test_case "crash kills fibers" `Quick crash_kills_fibers;
    Alcotest.test_case "restart allows new fibers" `Quick restart_allows_new_fibers;
    Alcotest.test_case "now follows the running engine" `Quick now_follows_running_engine;
    Alcotest.test_case "mutex exclusion" `Quick mutex_exclusion;
    Alcotest.test_case "mutex try_lock" `Quick mutex_try_lock;
    Alcotest.test_case "mutex unlock checks holder" `Quick mutex_unlock_not_holder;
    Alcotest.test_case "cond signal/broadcast" `Quick cond_signal_wakes_one;
    Alcotest.test_case "rwlock semantics" `Quick rwlock_readers_share;
    Alcotest.test_case "semaphore counting" `Quick sem_counting;
    Alcotest.test_case "net delivery" `Quick net_delivery;
    Alcotest.test_case "net partition" `Quick net_partition_drops;
    Alcotest.test_case "net FIFO per pair" `Quick net_fifo_per_pair;
    Alcotest.test_case "net drops to dead node" `Quick net_crashed_node_drops;
    Alcotest.test_case "net handler fibers listed only when suspended" `Quick
      net_handler_fibers;
    Alcotest.test_case "net drops to a node not added yet" `Quick
      net_drops_to_unadded_node;
    Alcotest.test_case "rpc roundtrip" `Quick rpc_roundtrip;
    Alcotest.test_case "rpc timeout" `Quick rpc_timeout;
    QCheck_alcotest.to_alcotest prop_rpc_drops_malformed_frames;
    Alcotest.test_case "golden substrate run" `Quick golden_substrate_run;
    Alcotest.test_case "golden run in until slices" `Quick golden_run_in_slices;
    Alcotest.test_case "pqueue order" `Quick pqueue_order;
    QCheck_alcotest.to_alcotest prop_pqueue_model;
    QCheck_alcotest.to_alcotest prop_pqueue_model_churn;
    QCheck_alcotest.to_alcotest prop_pqueue_remove;
    Alcotest.test_case "pqueue releases popped values" `Quick pqueue_releases_popped;
    Alcotest.test_case "rng deterministic" `Quick rng_deterministic;
    QCheck_alcotest.to_alcotest prop_rng_bounds;
  ]
