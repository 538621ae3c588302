(* lib/sched: the conflict-aware parallel SMR stacks.

   Four groups:
   - the shared conflict oracles (kv grammar, counter, session-envelope
     wrapping incl. the decode-error counter that replaced Eve's silent
     fallback);
   - the conflict DAG (same-key serialization, distinct-key parallelism,
     multi-key fan-in, barriers, trim-on-complete, double-complete);
   - the execution stage on the sim backend: log order preserved for
     conflicts in both modes, unknown requests (enveloped or not)
     serialize as barriers, early-mode rendezvous ordering across
     workers, a session client's order without a rendezvous, read
     parking, the decode-error counter at admission — plus the qcheck
     property that both modes reproduce a serial replay's state digest
     on random order-sensitive kv mixes;
   - the full stack: a 3-replica cluster per mode (replies, replica
     convergence, lease reads), checkpoint/restore through the codec
     path, exactly-once with concurrent calls on one client across a
     leader crash, and one seeded fault-schedule run per mode through
     the check runner. *)

open Sim
module R = Rex_core
module C = Sched.Conflict

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- conflict oracles --- *)

let oracle_kv () =
  check_bool "SET claims its key" true (C.kv "SET a v1" = [ "a" ]);
  check_bool "DEL claims its key" true (C.kv "DEL a" = [ "a" ]);
  check_bool "GET claims its key" true (C.kv "GET a" = [ "a" ]);
  check_bool "RMW claims its key" true (C.kv "RMW a f" = [ "a" ]);
  check_bool "MGET claims every key" true (C.kv "MGET a b c" = [ "a"; "b"; "c" ]);
  check_bool "unknown verb claims nothing" true (C.kv "FROB a" = []);
  check_bool "counter is one register" true
    (C.counter "INC" = [ C.counter_key ] && C.counter "GET" = [ C.counter_key ])

let oracle_envelope () =
  let obs = Obs.create () in
  let oracle = C.with_session ~obs ~subsystem:"schedtest" ~node:0 C.kv in
  let errors = Obs.counter obs ~subsystem:"schedtest"
      ~labels:[ ("node", "0") ] "envelope_decode_errors"
  in
  (* raw request: passes straight through to the app oracle *)
  check_bool "raw request untouched" true (oracle "SET a v" = [ "a" ]);
  (* enveloped: per-client session key prepended to the payload's keys *)
  let env = { R.Session.Envelope.client = 7; seq = 3; payload = "SET a v" } in
  check_bool "envelope prepends session key" true
    (oracle (R.Session.Envelope.encode env) = [ C.session_key 7; "a" ]);
  check_int "no decode errors yet" 0 (Obs.Metric.value errors);
  (* a truncated envelope (magic byte intact) raises inside decode: the
     oracle must fall back to payload-only keys AND count it *)
  let enc = R.Session.Envelope.encode env in
  let truncated = String.sub enc 0 (String.length enc - 1) in
  ignore (oracle truncated);
  check_int "decode error counted" 1 (Obs.Metric.value errors)

(* --- the conflict DAG --- *)

let take_exn d =
  match Sched.Dag.take_ready d with
  | Some n -> n
  | None -> Alcotest.fail "expected a ready node"

let dag_same_key_serializes () =
  let d = Sched.Dag.create () in
  let _a = Sched.Dag.insert d ~keys:[ "k" ] "a" in
  let _b = Sched.Dag.insert d ~keys:[ "k" ] "b" in
  check_int "only the first is ready" 1 (Sched.Dag.ready_width d);
  let a = take_exn d in
  check_string "FIFO by admission" "a" (Sched.Dag.payload a);
  check_bool "b still blocked" true (Sched.Dag.take_ready d = None);
  Sched.Dag.complete d a;
  check_string "b ready after a" "b" (Sched.Dag.payload (take_exn d))

let dag_distinct_keys_parallel () =
  let d = Sched.Dag.create () in
  let _ = Sched.Dag.insert d ~keys:[ "k1" ] "a" in
  let _ = Sched.Dag.insert d ~keys:[ "k2" ] "b" in
  check_int "both ready at once" 2 (Sched.Dag.ready_width d)

let dag_multi_key_fan_in () =
  let d = Sched.Dag.create () in
  let a = Sched.Dag.insert d ~keys:[ "k1" ] "a" in
  let b = Sched.Dag.insert d ~keys:[ "k2" ] "b" in
  let _m = Sched.Dag.insert d ~keys:[ "k1"; "k2" ] "m" in
  let a' = take_exn d and b' = take_exn d in
  check_bool "a and b ready, m is not" true
    (List.sort compare [ Sched.Dag.payload a'; Sched.Dag.payload b' ]
     = [ "a"; "b" ]
    && Sched.Dag.take_ready d = None);
  Sched.Dag.complete d a;
  check_bool "m waits for both predecessors" true (Sched.Dag.take_ready d = None);
  Sched.Dag.complete d b;
  check_string "m ready after both" "m" (Sched.Dag.payload (take_exn d))

let dag_barrier_orders_everything () =
  let d = Sched.Dag.create () in
  let a = Sched.Dag.insert d ~keys:[ "k1" ] "a" in
  let x = Sched.Dag.insert_barrier d "x" in
  let _c = Sched.Dag.insert d ~keys:[ "k2" ] "c" in
  (* c's key is free, but the barrier is live: only a may run *)
  check_string "only a ready" "a" (Sched.Dag.payload (take_exn d));
  check_bool "barrier blocked on a" true (Sched.Dag.take_ready d = None);
  Sched.Dag.complete d a;
  check_string "barrier after a" "x" (Sched.Dag.payload (take_exn d));
  check_bool "c blocked on barrier" true (Sched.Dag.take_ready d = None);
  Sched.Dag.complete d x;
  check_string "c after barrier" "c" (Sched.Dag.payload (take_exn d))

let dag_trim_on_complete () =
  let d = Sched.Dag.create () in
  let a = Sched.Dag.insert d ~keys:[ "k" ] "a" in
  let b = Sched.Dag.insert d ~keys:[ "k" ] "b" in
  check_int "two live nodes" 2 (Sched.Dag.size d);
  ignore (take_exn d);
  Sched.Dag.complete d a;
  ignore (take_exn d);
  Sched.Dag.complete d b;
  check_int "graph empty after trim" 0 (Sched.Dag.size d);
  check_bool "idle" true (Sched.Dag.idle d);
  check_bool "key released" false (Sched.Dag.busy d [ "k" ]);
  (* the per-key tail must have been trimmed: a fresh insert on the same
     key is immediately ready, not chained behind a dead node *)
  let _c = Sched.Dag.insert d ~keys:[ "k" ] "c" in
  check_string "fresh insert ready at once" "c" (Sched.Dag.payload (take_exn d))

let dag_double_complete_raises () =
  let d = Sched.Dag.create () in
  let a = Sched.Dag.insert d ~keys:[ "k" ] "a" in
  ignore (take_exn d);
  Sched.Dag.complete d a;
  match Sched.Dag.complete d a with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "double complete must raise"

(* --- the execution stage (sim backend) --- *)

(* Admit [reqs] in order from a driver fiber, record execution order,
   drain; [op_cost] of Engine.work per op makes executions overlap in
   virtual time so ordering bugs actually surface. *)
let run_exec ?(workers = 2) ?(op_cost = 1e-5) ~mode ~conflict reqs =
  let eng = Engine.create ~seed:7 ~cores_per_node:8 ~num_nodes:1 () in
  let backend = Par.Backend.of_sim eng in
  let order = ref [] in
  let execute req =
    Engine.work op_cost;
    order := req :: !order;
    "OK"
  in
  let exec =
    Sched.Exec.create backend ~node:0 ~mode ~workers ~conflict ~execute
  in
  ignore
    (Engine.spawn eng ~node:0 (fun () ->
         List.iter (fun r -> Sched.Exec.admit exec r ignore) reqs;
         Sched.Exec.drain exec));
  Engine.run ~until:600. eng;
  (List.rev !order, Sched.Exec.stats exec)

let pos order req =
  let rec go i = function
    | [] -> Alcotest.fail (req ^ " never executed")
    | r :: _ when r = req -> i
    | _ :: tl -> go (i + 1) tl
  in
  go 0 order

let exec_conflicts_in_log_order mode () =
  (* every request hits one key: execution must be the admission order *)
  let reqs = List.init 20 (fun i -> Printf.sprintf "RMW k %d" i) in
  let order, stats = run_exec ~workers:4 ~mode ~conflict:C.kv reqs in
  check_bool "log order preserved under conflict" true (order = reqs);
  check_int "all executed" 20 stats.Sched.Exec.executed

let exec_unknown_serializes mode () =
  (* unparseable requests ([] keys) are global barriers: the whole
     stream degenerates to admission order *)
  let reqs =
    [ "SET a 1"; "FROB x"; "SET b 2"; "FROB y"; "SET a 3" ]
  in
  let order, stats = run_exec ~workers:4 ~mode ~conflict:C.kv reqs in
  check_bool "total order around barriers" true
    (pos order "SET a 1" < pos order "FROB x"
    && pos order "FROB x" < pos order "SET b 2"
    && pos order "SET b 2" < pos order "FROB y"
    && pos order "FROB y" < pos order "SET a 3");
  check_int "barrier per unknown request" 2 stats.Sched.Exec.barriers

let early_rendezvous_ordering () =
  (* two keys owned by different workers (the class map is
     [Hashtbl.hash key mod workers]); a spanning MGET must rendezvous:
     everything admitted before it on either queue runs first,
     everything after runs later *)
  let workers = 2 in
  let candidates = List.init 16 (fun i -> Printf.sprintf "k%d" i) in
  let owner k = Hashtbl.hash k mod workers in
  let ka = List.find (fun k -> owner k = 0) candidates in
  let kb = List.find (fun k -> owner k = 1) candidates in
  let reqs =
    [
      Printf.sprintf "SET %s 1" ka;
      Printf.sprintf "SET %s 1" kb;
      Printf.sprintf "MGET %s %s" ka kb;
      Printf.sprintf "SET %s 2" ka;
      Printf.sprintf "SET %s 2" kb;
    ]
  in
  let order, stats =
    run_exec ~workers ~mode:Sched.Exec.Early ~conflict:C.kv reqs
  in
  let m = pos order (Printf.sprintf "MGET %s %s" ka kb) in
  check_bool "writes before the MGET rendezvous" true
    (pos order (Printf.sprintf "SET %s 1" ka) < m
    && pos order (Printf.sprintf "SET %s 1" kb) < m);
  check_bool "writes after the MGET rendezvous" true
    (pos order (Printf.sprintf "SET %s 2" ka) > m
    && pos order (Printf.sprintf "SET %s 2" kb) > m);
  check_int "all executed" 5 stats.Sched.Exec.executed

let exec_park_until_quiet () =
  let eng = Engine.create ~seed:7 ~cores_per_node:8 ~num_nodes:1 () in
  let backend = Par.Backend.of_sim eng in
  let done_write = ref false in
  let execute _req =
    Engine.work 0.01;
    done_write := true;
    "OK"
  in
  let exec =
    Sched.Exec.create backend ~node:0 ~mode:Sched.Exec.Cbase ~workers:2
      ~conflict:C.kv ~execute
  in
  let read_after_write = ref false and unrelated_waited = ref false in
  ignore
    (Engine.spawn eng ~node:0 (fun () ->
         Sched.Exec.admit exec "SET hot 1" ignore;
         check_bool "hot busy while in flight" true
           (Sched.Exec.busy exec [ "hot" ]);
         (* a read on an unrelated key must not wait for the write *)
         Sched.Exec.park_until_quiet exec [ "cold" ];
         unrelated_waited := !done_write;
         Sched.Exec.park_until_quiet exec [ "hot" ];
         read_after_write := !done_write));
  Engine.run ~until:60. eng;
  check_bool "unrelated read did not park" false !unrelated_waited;
  check_bool "conflicting read parked until the write" true !read_after_write

(* --- session clients: order as precedence, unkeyed envelopes as
   barriers --- *)

let envelope client seq payload =
  R.Session.Envelope.encode { R.Session.Envelope.client; seq; payload }

let payload_of req =
  match R.Session.Envelope.decode req with
  | Some e -> e.R.Session.Envelope.payload
  | None -> req

(* Admit [reqs] (enveloped or raw) from a driver fiber and record each
   execution's virtual-time interval, by payload; [cost payload] is its
   Engine.work. *)
let run_spans ?(workers = 4) ~mode ~cost reqs =
  let eng = Engine.create ~seed:7 ~cores_per_node:8 ~num_nodes:1 () in
  let backend = Par.Backend.of_sim eng in
  let spans = Hashtbl.create 16 in
  let execute req =
    let p = payload_of req in
    let t0 = Engine.now () in
    Engine.work (cost p);
    Hashtbl.replace spans p (t0, Engine.now ());
    "OK"
  in
  let exec =
    Sched.Exec.create backend ~node:0 ~mode ~workers ~conflict:C.kv ~execute
  in
  ignore
    (Engine.spawn eng ~node:0 (fun () ->
         List.iter (fun r -> Sched.Exec.admit exec r ignore) reqs;
         Sched.Exec.drain exec));
  Engine.run ~until:600. eng;
  let span p =
    match Hashtbl.find_opt spans p with
    | Some s -> s
    | None -> Alcotest.fail (p ^ " never executed")
  in
  (span, Sched.Exec.stats exec)

let owner ~workers k = Hashtbl.hash k mod workers

let key_owned_by ~workers w =
  List.find
    (fun k -> owner ~workers k = w)
    (List.init 64 (Printf.sprintf "k%d"))

(* [COUNT] names no key, so it reads the whole store: enveloped or not
   it must be a barrier.  The SET's key sits on another worker than
   client 2's session key, so a scheduler that read the session key as
   the COUNT's class let the two overlap, and the COUNT's reply (cached
   in the session table) depended on timing. *)
let exec_unkeyed_envelope_is_barrier mode () =
  let workers = 4 in
  let k =
    List.find
      (fun k -> owner ~workers k <> owner ~workers (C.session_key 2))
      (List.init 64 (Printf.sprintf "k%d"))
  in
  let set = Printf.sprintf "SET %s 1" k in
  let cost p = if p = set then 1e-3 else 1e-5 in
  let span, stats =
    run_spans ~workers ~mode ~cost [ envelope 1 1 set; envelope 2 1 "COUNT" ]
  in
  let _, set_end = span set and count_start, _ = span "COUNT" in
  check_bool "COUNT starts after the SET ends" true (count_start >= set_end);
  check_int "one barrier" 1 stats.Sched.Exec.barriers

(* One client, two requests on keys of different early workers: the
   second waits for the first (the precedence path), in both modes. *)
let exec_client_order mode () =
  let workers = 4 in
  let ka = key_owned_by ~workers 0 and kb = key_owned_by ~workers 1 in
  let first = Printf.sprintf "SET %s 1" ka
  and second = Printf.sprintf "SET %s 1" kb in
  let cost p = if p = first then 1e-3 else 1e-5 in
  let span, stats =
    run_spans ~workers ~mode ~cost [ envelope 1 1 first; envelope 1 2 second ]
  in
  let _, first_end = span first and second_start, _ = span second in
  check_bool "the client's second request starts after its first ends" true
    (second_start >= first_end);
  check_int "no rendezvous" 0 stats.Sched.Exec.barrier_stalls;
  if mode = Sched.Exec.Early then
    check_int "one precedence wait" 1 stats.Sched.Exec.precedence_waits

(* Single-key enveloped traffic from 8 clients: early places each
   request by its key alone — no barrier, no rendezvous — and still
   runs each client's requests in its order. *)
let early_single_key_no_rendezvous () =
  let rng = Random.State.make [| 3 |] in
  let reqs =
    List.init 64 (fun i ->
        let client = i mod 8 and seq = (i / 8) + 1 in
        let k = Random.State.int rng 16 in
        (client, seq, Printf.sprintf "RMW k%d c%d.%d" k client seq))
  in
  let cost _ = 1e-4 in
  let span, stats =
    run_spans ~mode:Sched.Exec.Early ~cost
      (List.map (fun (c, s, p) -> envelope c s p) reqs)
  in
  check_int "all executed" 64 stats.Sched.Exec.executed;
  check_int "no barriers" 0 stats.Sched.Exec.barriers;
  check_int "no rendezvous stalls" 0 stats.Sched.Exec.barrier_stalls;
  let payload c s =
    let _, _, p = List.find (fun (c', s', _) -> c' = c && s' = s) reqs in
    p
  in
  List.iter
    (fun (c, s, p) ->
      if s > 1 then
        check_bool (p ^ " after the client's previous request") true
          (fst (span p) >= snd (span (payload c (s - 1)))))
    reqs

(* A corrupt envelope reaching admission degrades to payload-only keys
   and is counted under sched/envelope_decode_errors. *)
let exec_counts_corrupt_envelope () =
  let eng = Engine.create ~seed:7 ~cores_per_node:8 ~num_nodes:1 () in
  let backend = Par.Backend.of_sim eng in
  let exec =
    Sched.Exec.create backend ~node:0 ~mode:Sched.Exec.Early ~workers:2
      ~conflict:C.kv
      ~execute:(fun _ -> "OK")
  in
  let enc = envelope 7 3 "SET a v" in
  let replies = ref 0 in
  ignore
    (Engine.spawn eng ~node:0 (fun () ->
         Sched.Exec.admit exec (String.sub enc 0 (String.length enc - 1))
           (fun _ -> incr replies);
         Sched.Exec.drain exec));
  Engine.run ~until:60. eng;
  check_int "still executed" 1 !replies;
  check_int "decode error counted" 1
    (Obs.Metric.value
       (Obs.counter (Engine.obs eng) ~subsystem:"sched"
          ~labels:[ ("node", "0") ] "envelope_decode_errors"))

(* qcheck: random order-sensitive kv mixes through both modes must end
   in the state a serial replay reaches (mirrors test_par's equivalence
   group).  RMW appends, so any per-key reordering changes the digest. *)
let apply_serial t req =
  match Apps.Util.words req with
  | [ "SET"; k; v ] -> Hashtbl.replace t k v
  | [ "DEL"; k ] -> Hashtbl.remove t k
  | [ "RMW"; k; v ] ->
    let old = Option.value (Hashtbl.find_opt t k) ~default:"0" in
    Hashtbl.replace t k (old ^ "+" ^ v)
  | _ -> ()

let kv_digest t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t []
  |> List.sort compare
  |> List.map (fun (k, v) -> k ^ "=" ^ v)
  |> String.concat ";"

let op_gen =
  QCheck.Gen.(
    map3
      (fun verb k v ->
        let key = Printf.sprintf "k%d" k in
        match verb with
        | 0 -> Printf.sprintf "SET %s v%d" key v
        | 1 -> Printf.sprintf "RMW %s %d" key v
        | 2 -> Printf.sprintf "DEL %s" key
        | 3 -> Printf.sprintf "GET %s" key
        | _ -> Printf.sprintf "MGET k%d k%d" k (v mod 5))
      (int_bound 4) (int_bound 4) (int_bound 9))

let prop_digest_matches_serial mode =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "%s replay matches serial digest"
         (Sched.Exec.mode_name mode))
    ~count:40
    (QCheck.make QCheck.Gen.(list_size (int_range 1 60) op_gen))
    (fun reqs ->
      let eng = Engine.create ~seed:11 ~cores_per_node:8 ~num_nodes:1 () in
      let backend = Par.Backend.of_sim eng in
      let t = Hashtbl.create 16 in
      let execute req =
        Engine.work 1e-5;
        apply_serial t req;
        "OK"
      in
      let exec =
        Sched.Exec.create backend ~node:0 ~mode ~workers:4 ~conflict:C.kv
          ~execute
      in
      ignore
        (Engine.spawn eng ~node:0 (fun () ->
             List.iter (fun r -> Sched.Exec.admit exec r ignore) reqs;
             Sched.Exec.drain exec));
      Engine.run ~until:600. eng;
      let serial = Hashtbl.create 16 in
      List.iter (apply_serial serial) reqs;
      kv_digest t = kv_digest serial)

(* Wake-ups: with every worker idle, one ready task wakes one worker —
   cbase's pool shares a condition and is signalled once per ready node,
   early signals the task's owner — and only an early barrier, which
   every worker must reach, wakes them all. *)
let wakeups_for ~mode admit =
  let eng = Engine.create ~seed:3 ~cores_per_node:8 ~num_nodes:1 () in
  let exec =
    Sched.Exec.create (Par.Backend.of_sim eng) ~node:0 ~mode ~workers:8
      ~conflict:C.kv ~execute:(fun _ -> "OK")
  in
  Engine.run ~until:1e-3 eng;
  ignore (Engine.spawn eng ~node:0 (fun () -> admit exec));
  Engine.run ~until:1.0 eng;
  check_int "all executed" 0 (Sched.Exec.pending exec);
  (Sched.Exec.stats exec).Sched.Exec.wakeups

let wake_counts () =
  let one_task exec = Sched.Exec.admit exec "SET k1 v" ignore in
  let barrier exec = Sched.Exec.admit_barrier exec ignore in
  check_int "cbase: one task wakes one worker" 1
    (wakeups_for ~mode:Sched.Exec.Cbase one_task);
  check_int "cbase: a barrier is one ready node" 1
    (wakeups_for ~mode:Sched.Exec.Cbase barrier);
  check_int "early: one task wakes its owner" 1
    (wakeups_for ~mode:Sched.Exec.Early one_task);
  check_int "early: a barrier wakes every worker" 8
    (wakeups_for ~mode:Sched.Exec.Early barrier)

(* No wake-up is lost: admissions spread over time with random gaps and
   costs, so workers are idle, busy or mid-wake when work arrives; every
   request must run (the drain returns) and the state must match a
   serial replay. *)
let prop_no_lost_wakeup mode =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "%s: no lost wake-up under spread admissions"
         (Sched.Exec.mode_name mode))
    ~count:40
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 1 80)
           (triple op_gen (oneofl [ 0.; 0.; 1e-6; 2e-5; 1e-4 ])
              (oneofl [ 0.; 1e-6; 3e-5 ]))))
    (fun steps ->
      let eng = Engine.create ~seed:13 ~cores_per_node:8 ~num_nodes:1 () in
      let t = Hashtbl.create 16 and costs = Hashtbl.create 16 in
      let execute req =
        Engine.work (Option.value (Hashtbl.find_opt costs req) ~default:0.);
        apply_serial t req;
        "OK"
      in
      let exec =
        Sched.Exec.create (Par.Backend.of_sim eng) ~node:0 ~mode ~workers:8
          ~conflict:C.kv ~execute
      in
      let drained = ref false in
      ignore
        (Engine.spawn eng ~node:0 (fun () ->
             List.iter
               (fun (req, gap, cost) ->
                 if gap > 0. then Engine.sleep gap;
                 if cost > 0. then Hashtbl.replace costs req cost;
                 Sched.Exec.admit exec req ignore)
               steps;
             Sched.Exec.drain exec;
             drained := true));
      Engine.run ~until:600. eng;
      let serial = Hashtbl.create 16 in
      List.iter (fun (req, _, _) -> apply_serial serial req) steps;
      !drained && kv_digest t = kv_digest serial)

(* --- the full stack --- *)

let make_cluster ~mode =
  let replicas = [ 0; 1; 2 ] in
  let cfg = R.Config.make ~workers:4 ~replicas () in
  let cluster =
    R.Cluster.create_log ~seed:5 ~replicas (fun net rpc ~node ~paxos_store ->
        Sched.Server.create net rpc cfg ~node ~paxos_store ~mode ~conflict:C.kv
          (Apps.Kyoto.factory ()))
  in
  R.Cluster.start cluster;
  R.Cluster.run ~until:1.0 cluster;
  let primary = R.Cluster.await_primary cluster in
  (R.Cluster.engine cluster, R.Cluster.servers cluster, primary)

let cluster_smoke mode () =
  let eng, servers, primary = make_cluster ~mode in
  let n = 40 in
  let replies = ref 0 and read = ref "" in
  ignore
    (Engine.spawn eng ~node:3 (fun () ->
         for i = 0 to n - 1 do
           Sched.Server.submit primary
             (Printf.sprintf "SET s%d v%d" (i mod 7) i)
             (fun resp -> if resp <> None then incr replies)
         done));
  Engine.run ~until:30. eng;
  check_int "every submit answered" n !replies;
  (* lease read through the frontend read routing (parks behind
     conflicting in-flight writes) *)
  ignore
    (Engine.spawn eng ~node:3 (fun () ->
         read := Sched.Server.query primary "GET s0"));
  Engine.run ~until:40. eng;
  check_string "lease read sees the committed write" "v35" !read;
  let d = Sched.Server.app_digest servers.(0) in
  Array.iter
    (fun s -> check_string "replicas converged" d (Sched.Server.app_digest s))
    servers;
  check_bool "executed on every replica" true
    (Array.for_all (fun s -> Sched.Server.executed_requests s >= n) servers)

let checkpoint_roundtrip () =
  let eng, _servers, primary = make_cluster ~mode:Sched.Exec.Cbase in
  let phase = ref `Write and snap = ref "" and d0 = ref "" in
  ignore
    (Engine.spawn eng ~node:3 (fun () ->
         let put i =
           let resp = ref None in
           Sched.Server.submit primary
             (Printf.sprintf "SET c%d v%d" i i)
             (fun r -> resp := r);
           while !resp = None do
             Engine.sleep 0.01
           done
         in
         for i = 0 to 9 do
           put i
         done;
         d0 := Sched.Server.app_digest primary;
         snap := Sched.Server.checkpoint primary;
         phase := `Snapped;
         (* mutate past the snapshot, then rewind *)
         put 10;
         check_bool "state moved past the snapshot" true
           (Sched.Server.app_digest primary <> !d0);
         Sched.Server.restore primary !snap;
         phase := `Restored));
  Engine.run ~until:60. eng;
  check_bool "restore completed" true (!phase = `Restored);
  check_string "restore rewound to the checkpoint cut" !d0
    (Sched.Server.app_digest primary)

(* --- exactly once with concurrent calls on one client --- *)

(* Counters keyed by name: [INC k] adds one to [k] and answers its new
   value, [GET k] reads it. *)
let counters : R.App.factory =
 fun api ->
  let tbl = Hashtbl.create 16 in
  let get k = Option.value (Hashtbl.find_opt tbl k) ~default:0 in
  let bindings () =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  let execute ~request =
    R.Api.work api 5e-5;
    match String.split_on_char ' ' request with
    | [ "INC"; k ] ->
      Hashtbl.replace tbl k (get k + 1);
      string_of_int (get k)
    | [ "GET"; k ] -> string_of_int (get k)
    | _ -> "ERR:bad-request"
  in
  {
    R.App.name = "counters";
    execute;
    query = (fun ~request -> execute ~request);
    write_checkpoint =
      (fun sink ->
        Codec.write_list sink
          (fun b (k, v) ->
            Codec.write_string b k;
            Codec.write_uvarint b v)
          (bindings ()));
    read_checkpoint =
      (fun src ->
        Hashtbl.reset tbl;
        Codec.read_list src (fun s ->
            let k = Codec.read_string s in
            (k, Codec.read_uvarint s))
        |> List.iter (fun (k, v) -> Hashtbl.replace tbl k v));
    digest =
      (fun () ->
        String.concat ";"
          (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (bindings ())));
  }

let counter_keys req =
  match String.split_on_char ' ' req with
  | [ ("INC" | "GET"); k ] -> [ k ]
  | _ -> []

(* test_rex's shared-handle failover on a sched stack: four fibers share
   one handle, each sending an INC every 1 ms on a key that moves over
   eight keys (so one client's calls cross worker classes); the primary
   crashes 0.3 s in.  No call may come back [None]; the live replicas'
   counters must add up to the number of calls (each executed exactly
   once) and their app and session digests must agree. *)
let shared_handle_exactly_once mode handle () =
  let replicas = [ 0; 1; 2 ] in
  let cfg = R.Config.make ~workers:4 ~replicas () in
  let cluster =
    R.Cluster.create_log ~seed:1 ~replicas (fun net rpc ~node ~paxos_store ->
        Sched.Server.create net rpc cfg ~node ~paxos_store ~mode
          ~conflict:counter_keys counters)
  in
  R.Cluster.start cluster;
  R.Cluster.run ~until:1.0 cluster;
  let primary = R.Cluster.await_primary cluster in
  let eng = R.Cluster.engine cluster in
  let call = handle cluster in
  let stop = Engine.clock eng +. 3.0 in
  let calls = ref 0 and failed = ref 0 in
  for f = 1 to 4 do
    ignore
      (Engine.spawn eng ~node:(R.Cluster.client_node cluster)
         ~name:"shared" (fun () ->
           let i = ref 0 in
           while Engine.now () < stop do
             let k = ((3 * f) + !i) mod 8 in
             if call (Printf.sprintf "INC k%d" k) = None then incr failed;
             incr calls;
             incr i;
             Engine.sleep 1e-3
           done))
  done;
  Engine.run ~until:(Engine.clock eng +. 0.3) eng;
  R.Cluster.crash cluster (R.Log_server.node primary);
  Engine.run ~until:(stop +. 2.0) eng;
  check_bool "calls kept flowing" true (!calls > 5000);
  check_int "no call gave up" 0 !failed;
  let live = R.Cluster.live cluster in
  check_int "two live replicas" 2 (List.length live);
  let sums =
    List.map
      (fun s ->
        (* the session wrapper appends "#s<table digest>" *)
        let d = R.Log_server.app_digest s in
        String.split_on_char ';' (String.sub d 0 (String.index d '#'))
        |> List.fold_left
             (fun acc kv ->
               match String.split_on_char '=' kv with
               | [ _; v ] -> acc + int_of_string v
               | _ -> acc)
             0)
      live
  in
  List.iter (check_int "every call executed exactly once" !calls) sums;
  if mode = Sched.Exec.Early then
    check_bool "the precedence path ran" true
      (List.exists
         (fun s -> (Sched.Exec.stats (Sched.Server.exec s)).precedence_waits > 0)
         live);
  let digest f = List.sort_uniq compare (List.map f live) in
  check_int "app digests converge" 1
    (List.length (digest R.Log_server.app_digest));
  check_int "session digests converge" 1
    (List.length
       (digest (fun s -> R.Session.Table.digest (R.Log_server.session_table s))))

let client_handle cluster = R.Client.call (R.Cluster.client cluster)

let router_handle cluster =
  let router =
    Shard.Router.create (R.Cluster.net cluster) (R.Cluster.rpc cluster)
      ~me:(R.Cluster.client_node cluster)
      ~map:(Shard.Shard_map.create ~groups:[ 0 ] ())
      ~groups:[ (0, R.Cluster.replica_nodes cluster) ]
  in
  Shard.Router.call_group router ~group:0

let runner_one_seed stack () =
  let nemesis = Option.get (Check.Nemesis.profile_of_string "crash") in
  let cfg =
    Check.Runner.default_config ~clients:2 ~ops_per_client:4 ~stack
      ~app:Check.Runner.Kv ~nemesis ~seed:77 ()
  in
  let o = Check.Runner.run_one cfg in
  check_bool "linearizable, converged and live" true (Check.Runner.passed o)

let suite =
  [
    Alcotest.test_case "exec: wake only the workers a task needs" `Quick
      wake_counts;
    QCheck_alcotest.to_alcotest (prop_no_lost_wakeup Sched.Exec.Cbase);
    QCheck_alcotest.to_alcotest (prop_no_lost_wakeup Sched.Exec.Early);
    Alcotest.test_case "conflict: kv + counter oracles" `Quick oracle_kv;
    Alcotest.test_case "conflict: session envelopes + decode-error counter"
      `Quick oracle_envelope;
    Alcotest.test_case "dag: same key serializes" `Quick dag_same_key_serializes;
    Alcotest.test_case "dag: distinct keys parallel" `Quick
      dag_distinct_keys_parallel;
    Alcotest.test_case "dag: multi-key fan-in" `Quick dag_multi_key_fan_in;
    Alcotest.test_case "dag: barrier orders everything" `Quick
      dag_barrier_orders_everything;
    Alcotest.test_case "dag: trim on complete" `Quick dag_trim_on_complete;
    Alcotest.test_case "dag: double complete raises" `Quick
      dag_double_complete_raises;
    Alcotest.test_case "exec: cbase keeps log order under conflict" `Quick
      (exec_conflicts_in_log_order Sched.Exec.Cbase);
    Alcotest.test_case "exec: early keeps log order under conflict" `Quick
      (exec_conflicts_in_log_order Sched.Exec.Early);
    Alcotest.test_case "exec: cbase serializes unknown requests" `Quick
      (exec_unknown_serializes Sched.Exec.Cbase);
    Alcotest.test_case "exec: early serializes unknown requests" `Quick
      (exec_unknown_serializes Sched.Exec.Early);
    Alcotest.test_case "exec: early rendezvous ordering" `Quick
      early_rendezvous_ordering;
    Alcotest.test_case "exec: reads park behind conflicting writes" `Quick
      exec_park_until_quiet;
    Alcotest.test_case "exec: cbase runs unkeyed envelopes as barriers" `Quick
      (exec_unkeyed_envelope_is_barrier Sched.Exec.Cbase);
    Alcotest.test_case "exec: early runs unkeyed envelopes as barriers" `Quick
      (exec_unkeyed_envelope_is_barrier Sched.Exec.Early);
    Alcotest.test_case "exec: cbase keeps a client's order" `Quick
      (exec_client_order Sched.Exec.Cbase);
    Alcotest.test_case "exec: early keeps a client's order" `Quick
      (exec_client_order Sched.Exec.Early);
    Alcotest.test_case "exec: early single-key envelopes need no rendezvous"
      `Quick early_single_key_no_rendezvous;
    Alcotest.test_case "exec: admission counts corrupt envelopes" `Quick
      exec_counts_corrupt_envelope;
    QCheck_alcotest.to_alcotest (prop_digest_matches_serial Sched.Exec.Cbase);
    QCheck_alcotest.to_alcotest (prop_digest_matches_serial Sched.Exec.Early);
    Alcotest.test_case "stack: cbase cluster smoke" `Quick
      (cluster_smoke Sched.Exec.Cbase);
    Alcotest.test_case "stack: early cluster smoke" `Quick
      (cluster_smoke Sched.Exec.Early);
    Alcotest.test_case "stack: checkpoint round-trip" `Quick
      checkpoint_roundtrip;
    Alcotest.test_case "stack: cbase shared client exactly once" `Quick
      (shared_handle_exactly_once Sched.Exec.Cbase client_handle);
    Alcotest.test_case "stack: early shared client exactly once" `Quick
      (shared_handle_exactly_once Sched.Exec.Early client_handle);
    Alcotest.test_case "stack: cbase shared router exactly once" `Quick
      (shared_handle_exactly_once Sched.Exec.Cbase router_handle);
    Alcotest.test_case "stack: early shared router exactly once" `Quick
      (shared_handle_exactly_once Sched.Exec.Early router_handle);
    Alcotest.test_case "stack: check runner passes on cbase" `Quick
      (runner_one_seed Check.Runner.Cbase);
    Alcotest.test_case "stack: check runner passes on early" `Quick
      (runner_one_seed Check.Runner.Early);
  ]
