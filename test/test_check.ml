(* Tests for the correctness harness (lib/check): the linearizability
   checker against hand-built and generated histories, fate/ambiguity
   semantics, seeded-schedule determinism, failure shrinking, and the
   two liveness bugs PR 4 flushed out — pinned here as explicit nemesis
   schedules so they can never silently return. *)

module H = Check.History
module Lin = Check.Lin
module Spec = Check.Spec
module N = Check.Nemesis
module Runner = Check.Runner

(* --- History construction helpers --- *)

let ent ?(client = 0) id request invoke return_ fate =
  { H.id; client; request; invoke; return_; fate }

let ok r = H.Returned r

let verdict_of spec entries = (Lin.check spec entries).Lin.verdict

let is_lin = function Lin.Linearizable -> true | _ -> false
let is_nonlin = function Lin.Non_linearizable _ -> true | _ -> false

let check_lin msg spec entries =
  Alcotest.(check bool) msg true (is_lin (verdict_of spec entries))

let check_nonlin msg spec entries =
  Alcotest.(check bool) msg true (is_nonlin (verdict_of spec entries))

(* --- Register spec, hand-built histories --- *)

let register_sequential () =
  check_lin "sequential register history accepted" Spec.register
    [
      ent 0 "SET k a" 0. 1. (ok "OK");
      ent 1 "GET k" 2. 3. (ok "a");
      ent 2 "SET j b" 4. 5. (ok "OK");
      ent 3 "DEL k" 6. 7. (ok "OK");
      ent 4 "GET k" 8. 9. (ok "NOTFOUND");
      ent 5 "GET j" 10. 11. (ok "b");
    ]

let register_stale_read () =
  (* Both writes completed before the read began; reading the older
     value is the canonical non-linearizable history. *)
  check_nonlin "stale read rejected" Spec.register
    [
      ent 0 "SET k a" 0. 1. (ok "OK");
      ent 1 "SET k b" 2. 3. (ok "OK");
      ent 2 "GET k" 4. 5. (ok "a");
    ]

let register_concurrent_writes () =
  (* Two overlapping writes: a later read may observe either order. *)
  let history winner =
    [
      ent 0 "SET k a" 0. 3. (ok "OK");
      ent ~client:1 1 "SET k b" 1. 2. (ok "OK");
      ent 2 "GET k" 4. 5. (ok winner);
    ]
  in
  check_lin "concurrent writes: order a-last accepted" Spec.register
    (history "a");
  check_lin "concurrent writes: order b-last accepted" Spec.register
    (history "b");
  check_nonlin "concurrent writes: phantom value rejected" Spec.register
    (history "c")

let register_partitioning () =
  (* Per-key partitioning: a cross-key interleaving that is fine key by
     key must be accepted, and the partition count must reflect it. *)
  let entries =
    [
      ent 0 "SET k a" 0. 10. (ok "OK");
      ent ~client:1 1 "SET j b" 1. 2. (ok "OK");
      ent ~client:1 2 "GET j" 3. 4. (ok "b");
      ent ~client:1 3 "GET k" 11. 12. (ok "a");
    ]
  in
  let res = Lin.check Spec.register entries in
  Alcotest.(check bool) "accepted" true (is_lin res.Lin.verdict);
  Alcotest.(check int) "two key partitions" 2 res.Lin.partitions

(* --- Fates: timeouts are optional, resolved ops are mandatory --- *)

let timeout_write_optional () =
  let base fate_b read =
    [
      ent 0 "SET k a" 0. 1. (ok "OK");
      ent ~client:1 1 "SET k b" 2. 3. fate_b;
      ent 2 "GET k" 4. 5. (ok read);
    ]
  in
  (* A timed-out write may have executed... *)
  check_lin "timed-out write linearized" Spec.register
    (base H.Timed_out "b");
  (* ...or not. *)
  check_lin "timed-out write omitted" Spec.register (base H.Timed_out "a");
  (* But a *returned* write is not optional. *)
  check_nonlin "returned write cannot be omitted" Spec.register
    (base (ok "OK") "a");
  (* A resolved write has return +∞, so it may linearize after the read
     — "read missed it" stays accepted (it executed, just later). *)
  check_lin "resolved write may linearize past the read" Spec.register
    (base (H.Resolved "OK") "a")

let resolved_response_constrains () =
  (* Two resolved INCs both claiming response "1": they both must
     linearize, but the counter can only produce "1" once. *)
  check_nonlin "conflicting resolved responses rejected" Spec.counter
    [
      ent 0 "INC a" 0. infinity (H.Resolved "1");
      ent ~client:1 1 "INC b" 0. infinity (H.Resolved "1");
    ];
  check_lin "consistent resolved responses accepted" Spec.counter
    [
      ent 0 "INC a" 0. infinity (H.Resolved "1");
      ent ~client:1 1 "INC b" 0. infinity (H.Resolved "2");
    ]

let ambiguous_read_dropped () =
  let res =
    Lin.check Spec.register
      [
        ent 0 "SET k a" 0. 1. (ok "OK");
        ent 1 "GET k" 2. infinity H.Timed_out;
      ]
  in
  Alcotest.(check bool) "accepted" true (is_lin res.Lin.verdict);
  Alcotest.(check int) "read dropped" 1 res.Lin.dropped_ambiguous_reads

(* --- Counter spec --- *)

let counter_histories () =
  let inc id client tag lo hi resp =
    ent ~client id (Printf.sprintf "INC %s" tag) lo hi (ok resp)
  in
  check_lin "concurrent INCs forming a permutation accepted" Spec.counter
    [
      inc 0 0 "a" 0. 10. "2";
      inc 1 1 "b" 0. 10. "3";
      inc 2 2 "c" 0. 10. "1";
      ent 3 "GET" 11. 12. (ok "3");
    ];
  check_nonlin "INC response gap rejected" Spec.counter
    [ inc 0 0 "a" 0. 1. "1"; inc 1 0 "b" 2. 3. "3" ];
  check_nonlin "duplicate INC response rejected" Spec.counter
    [ inc 0 0 "a" 0. 10. "1"; inc 1 1 "b" 0. 10. "1" ];
  check_nonlin "final read below commit count rejected" Spec.counter
    [ inc 0 0 "a" 0. 1. "1"; inc 1 0 "b" 2. 3. "2"; ent 2 "GET" 4. 5. (ok "1") ]

(* --- Generated histories (qcheck) --- *)

let keys = [| "k0"; "k1"; "k2" |]

let op_gen =
  QCheck.Gen.(
    map2
      (fun k c ->
        let key = keys.(k) in
        match c with
        | 0 -> Printf.sprintf "GET %s" key
        | 1 -> Printf.sprintf "DEL %s" key
        | n -> Printf.sprintf "SET %s v%d" key n)
      (int_bound 2) (int_bound 6))

(* Apply requests sequentially through the spec itself; the resulting
   strictly-sequential history is linearizable by construction. *)
let sequential_history ops =
  let state = Hashtbl.create 8 in
  List.mapi
    (fun i req ->
      let key = Option.get (Spec.register.Spec.key_of req) in
      let st =
        Option.value (Hashtbl.find_opt state key)
          ~default:Spec.register.Spec.init
      in
      let st', resp = Option.get (Spec.register.Spec.apply st req) in
      Hashtbl.replace state key st';
      let t = float_of_int (2 * i) in
      ent i req t (t +. 1.) (ok resp))
    ops

let prop_sequential_accepted =
  QCheck.Test.make ~name:"sequential spec-generated histories linearizable"
    ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 12) (QCheck.make op_gen))
    (fun ops -> is_lin (verdict_of Spec.register (sequential_history ops)))

let prop_mutation_rejected =
  (* In a strictly sequential history every response is uniquely
     determined, so corrupting any one response to a different string
     must be caught. *)
  QCheck.Test.make ~name:"corrupted response caught" ~count:100
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.int_range 1 10) (QCheck.make op_gen))
        (int_range 0 1000))
    (fun (ops, pick) ->
      let entries = sequential_history ops in
      let n = List.length entries in
      let victim = pick mod n in
      let mutated =
        List.map
          (fun e ->
            if e.H.id = victim then { e with H.fate = ok "CORRUPT" } else e)
          entries
      in
      is_nonlin (verdict_of Spec.register mutated))

let prop_counter_permutation =
  QCheck.Test.make
    ~name:"concurrent INCs: permutation accepted, duplicate rejected"
    ~count:60
    QCheck.(int_range 1 6)
    (fun n ->
      let entries resp_of =
        List.init n (fun i ->
            ent ~client:i i (Printf.sprintf "INC %d" i) 0. 100.
              (ok (string_of_int (resp_of i))))
      in
      (* any rotation of 1..n is a valid permutation *)
      let rot i = 1 + ((i + 1) mod n) in
      let good = is_lin (verdict_of Spec.counter (entries rot)) in
      let bad =
        n < 2
        || is_nonlin
             (verdict_of Spec.counter (entries (fun i -> 1 + min i (n - 2))))
      in
      good && bad)

(* --- Runner: determinism and shrinking --- *)

let small ?(dedup_off = false) ?(app = Runner.Kv) ~nemesis ~seed () =
  Runner.default_config ~clients:2 ~ops_per_client:4 ~dedup_off ~app
    ~stack:Runner.Rex ~nemesis ~seed ()

let replay_deterministic () =
  let cfg = small ~nemesis:N.Mixed ~seed:2024 () in
  let a = (Runner.run_one cfg).Runner.history_lines in
  let b = (Runner.run_one cfg).Runner.history_lines in
  Alcotest.(check (list string)) "same seed, byte-identical history" a b

let shrink_preserves_failure () =
  (* The dedup-off canary fails under message loss; shrinking must keep
     it failing and never grow the schedule.  The schedule is built, not
     drawn: one drop fault at p = 0.5 over the whole ops window, so each
     seed only varies which messages are lost. *)
  List.iter
    (fun seed ->
      let cfg =
        Runner.default_config ~clients:3 ~ops_per_client:8 ~dedup_off:true
          ~app:Runner.Counter ~stack:Runner.Rex ~nemesis:N.Drops ~seed ()
      in
      let schedule =
        {
          N.horizon = cfg.Runner.horizon;
          faults =
            [ { N.kind = N.Drop 0.5; at = 0.; dur = cfg.Runner.horizon } ];
        }
      in
      let o = Runner.run_one ~schedule cfg in
      let check what =
        Alcotest.(check bool) (Printf.sprintf "seed %d: %s" seed what)
      in
      check "canary fails before shrinking" false (Runner.passed o);
      let sched, o' = Runner.shrink cfg o.Runner.schedule o in
      check "still failing after shrinking" false (Runner.passed o');
      check "schedule did not grow" true
        (List.length sched.N.faults <= List.length o.Runner.schedule.N.faults);
      check "reproducer within 3 faults" true (List.length sched.N.faults <= 3))
    [ 1001; 1002; 1003; 1004; 1005 ]

let clean_run_passes () =
  (* A fault-free schedule over a correct stack must pass: guards
     against the harness itself flagging healthy runs. *)
  let cfg = small ~nemesis:N.Partitions ~seed:2025 () in
  let schedule = { N.horizon = cfg.Runner.horizon; faults = [] } in
  let o = Runner.run_one ~schedule cfg in
  Alcotest.(check bool) "no-fault run passes" true (Runner.passed o)

(* --- Pinned regressions: PR 4's liveness bugs, replayed through the
   nemesis so the exact scenarios stay covered. --- *)

let crash ~at node = { N.kind = N.Crash node; at; dur = 0.6 }

(* Bug 1: random fault schedule (seed 392, victims [1;2;2]) — a replica
   crashed and restarted twice in a row stalled on rejoin and the
   cluster never reconverged.  Same victim sequence, via the nemesis. *)
let regression_rejoin_stall () =
  let cfg =
    Runner.default_config ~clients:2 ~ops_per_client:6
      ~checkpoint_interval:(Some 0.3) ~stack:Runner.Rex ~app:Runner.Kv
      ~nemesis:N.Crashes ~seed:392 ()
  in
  let schedule =
    {
      N.horizon = cfg.Runner.horizon;
      faults = [ crash ~at:0.4 1; crash ~at:1.4 2; crash ~at:2.4 2 ];
    }
  in
  let o = Runner.run_one ~schedule cfg in
  Alcotest.(check bool) "double crash/restart of one replica converges" true
    (Runner.passed o)

(* Bug 2: an Accept lost under message drops wedged the group — the
   leader never re-proposed and post-heal requests hung forever.  Heavy
   loss followed by a leader kill, then the liveness probe must land. *)
let regression_dropped_accept_wedge () =
  let cfg =
    Runner.default_config ~clients:2 ~ops_per_client:6 ~stack:Runner.Rex
      ~app:Runner.Counter ~nemesis:N.Drops ~seed:392 ()
  in
  let schedule =
    {
      N.horizon = cfg.Runner.horizon;
      faults =
        [
          { N.kind = N.Drop 0.35; at = 0.3; dur = 1.0 };
          { N.kind = N.Kill_leader; at = 1.8; dur = 0.6 };
        ];
    }
  in
  let o = Runner.run_one ~schedule cfg in
  Alcotest.(check bool) "group stays live after drops + leader kill" true
    (Runner.passed o)

(* --- Topology nemeses: reconfig / split / upgrade under traffic --- *)

let topo_cfg ?(app = Runner.Kv) ~stack ~nemesis ~seed () =
  Runner.default_config ~clients:2 ~ops_per_client:6 ~stack ~app ~nemesis
    ~seed ()

let reconfig_nemesis_rex () =
  let o = Runner.run_one (topo_cfg ~stack:Runner.Rex ~nemesis:N.Reconfigs ~seed:71 ()) in
  Alcotest.(check bool) "replica replacement under traffic passes" true
    (Runner.passed o)

let reconfig_nemesis_sharded () =
  let o =
    Runner.run_one (topo_cfg ~stack:Runner.Sharded ~nemesis:N.Reconfigs ~seed:72 ())
  in
  Alcotest.(check bool) "group reconfig in a fleet passes" true
    (Runner.passed o)

(* The counter app is one counter per key here: a migration moves each
   count with a "SET k n" import. *)
let split_nemesis_sharded () =
  List.iter
    (fun app ->
      let o =
        Runner.run_one
          (topo_cfg ~app ~stack:Runner.Sharded ~nemesis:N.Splits ~seed:73 ())
      in
      Alcotest.(check bool)
        (Runner.app_name app ^ ": live split+merge under traffic passes")
        true (Runner.passed o))
    [ Runner.Kv; Runner.Counter ]

let upgrade_nemesis_all_stacks () =
  (* The rolling restart rides the same-store replay path on the stacks
     without checkpoint recovery; Rex recovers from disk. *)
  List.iter
    (fun stack ->
      let o =
        Runner.run_one (topo_cfg ~stack ~nemesis:N.Upgrades ~seed:74 ())
      in
      Alcotest.(check bool)
        (Runner.stack_name stack ^ ": rolling upgrade passes")
        true (Runner.passed o))
    [ Runner.Rex; Runner.Smr; Runner.Eve; Runner.Cbase; Runner.Early;
      Runner.Sharded ]

(* A log-order group replaces a replica through its log: the newcomer
   catches up by Learn over the untruncated log and serves as a member. *)
let log_order_replacement stack () =
  let cfg =
    topo_cfg ~app:Runner.Counter ~stack ~nemesis:N.Reconfigs ~seed:76 ()
  in
  let d = Runner.deploy (fun eng -> H.create eng) cfg in
  let before = d.Runner.target.N.nodes in
  let eng = d.Runner.eng in
  let in_fiber reqs =
    let replies = ref [] and finished = ref false in
    ignore
      (Sim.Engine.spawn eng ~node:(List.hd d.Runner.target.N.others)
         (fun () ->
           List.iter
             (fun req -> replies := d.Runner.call 0 ~retries:12 req :: !replies)
             reqs;
           finished := true));
    while not !finished do
      Sim.Engine.run ~until:(Sim.Engine.clock eng +. 0.1) eng
    done;
    List.rev !replies
  in
  let incs tag = List.init 10 (fun i -> Printf.sprintf "INC %s.%d" tag i) in
  let acked rs = List.length (List.filter Option.is_some rs) in
  let first = in_fiber (incs "a") in
  (match d.Runner.target.N.topo.N.t_reconfig with
  | Some replace -> replace ()
  | None -> Alcotest.fail "no reconfig hook");
  let second = in_fiber (incs "b") in
  Sim.Engine.run ~until:(Sim.Engine.clock eng +. 1.) eng;
  let after = d.Runner.target.N.nodes in
  let gone = List.filter (fun n -> not (List.mem n after)) before in
  let added = List.filter (fun n -> not (List.mem n before)) after in
  Alcotest.(check int) "one victim dropped" 1 (List.length gone);
  Alcotest.(check int) "one newcomer gained" 1 (List.length added);
  Alcotest.(check int) "every write acknowledged" 20
    (acked first + acked second);
  Alcotest.(check (list (option string))) "the count survives" [ Some "20" ]
    (in_fiber [ "GET" ]);
  match d.Runner.digests () with
  | [ (d0 :: _ as ds) ] ->
    Alcotest.(check int) "three live replicas" 3 (List.length ds);
    Alcotest.(check bool) "live digests converge" true
      (List.for_all (String.equal d0) ds)
  | _ -> Alcotest.fail "expected one replica group"

(* The shard stack's split sweep once flagged these seeds: a write gave
   up during a migration and was resolved from its "ERR:migrating"
   reply, a rejection that touched no state. *)
let split_rejection_is_not_an_execution () =
  List.iter
    (fun seed ->
      let o =
        Runner.run_one
          (topo_cfg ~stack:Runner.Sharded ~nemesis:N.Splits ~seed ())
      in
      if not (Runner.passed o) then
        Alcotest.fail (String.concat "\n" (Runner.describe_outcome o)))
    [ 1024; 1026 ]

(* A repeated payload ([GET k], [DEL k]) commits once per use, which is
   no double execution.  Seed 2280 of the kv split sweep repeats such
   payloads, and only a client that defeats dedup runs an op twice. *)
let split_double_commits_count_executions () =
  let doubles dedup_off =
    let cfg =
      Runner.default_config ~dedup_off ~stack:Runner.Sharded ~app:Runner.Kv
        ~nemesis:N.Splits ~seed:2280 ()
    in
    (Runner.run_one cfg).Runner.hstats.H.double_commits
  in
  Alcotest.(check int) "dedup on: no double commit" 0 (doubles false);
  Alcotest.(check bool) "dedup off: double commits" true (doubles true > 0)

(* The split canary: per-key counters on the shard stack with dedup
   defeated.  A double execution shows in the counts, so the checker
   flags it without resolving any op from a commit. *)
let split_keyed_counter_canary () =
  let flagged =
    List.filter
      (fun seed ->
        let o =
          Runner.run_one
            (Runner.default_config ~dedup_off:true ~stack:Runner.Sharded
               ~app:Runner.Counter ~nemesis:N.Splits ~seed ())
        in
        if not (Runner.passed o) then
          Alcotest.(check int)
            (Printf.sprintf "seed %d: no op resolved" seed)
            0 o.Runner.hstats.H.resolved;
        not (Runner.passed o))
      [ 2280; 2281; 2282; 2283; 2284 ]
  in
  Alcotest.(check bool) "some seed flagged" true (flagged <> [])

let topo_noop_without_hooks () =
  (* A split profile on an unsharded stack must degrade to a clean run,
     so `--nemesis all` stays runnable everywhere. *)
  let o = Runner.run_one (topo_cfg ~stack:Runner.Smr ~nemesis:N.Splits ~seed:75 ()) in
  Alcotest.(check bool) "split profile no-ops on smr" true (Runner.passed o)

(* Leader kills with several instances in flight: the event-driven
   batcher pairs each commit with its own callbacks, and a deposed
   leader answers [None] for every open instance, so retries are served
   exactly once by the next leader. *)
let leader_kill_pipelined ~depth stack () =
  List.iter
    (fun seed ->
      let cfg =
        Runner.default_config ~pipeline_depth:depth ~app:Runner.Counter ~stack
          ~nemesis:N.Leader_kills ~seed ()
      in
      let o = Runner.run_one cfg in
      if not (Runner.passed o) then
        Alcotest.fail (String.concat "\n" (Runner.describe_outcome o)))
    [ 1; 2; 3 ]

let suite =
  [
    Alcotest.test_case "leader kills at pipeline depth 2: smr" `Quick
      (leader_kill_pipelined ~depth:2 Runner.Smr);
    Alcotest.test_case "leader kills at pipeline depth 2: cbase" `Quick
      (leader_kill_pipelined ~depth:2 Runner.Cbase);
    Alcotest.test_case "leader kills at pipeline depth 2: early" `Quick
      (leader_kill_pipelined ~depth:2 Runner.Early);
    Alcotest.test_case "leader kills at pipeline depth 4: smr" `Quick
      (leader_kill_pipelined ~depth:4 Runner.Smr);
    Alcotest.test_case "leader kills at pipeline depth 4: cbase" `Quick
      (leader_kill_pipelined ~depth:4 Runner.Cbase);
    Alcotest.test_case "leader kills at pipeline depth 4: early" `Quick
      (leader_kill_pipelined ~depth:4 Runner.Early);
    Alcotest.test_case "register: sequential" `Quick register_sequential;
    Alcotest.test_case "register: stale read" `Quick register_stale_read;
    Alcotest.test_case "register: concurrent writes" `Quick
      register_concurrent_writes;
    Alcotest.test_case "register: per-key partitioning" `Quick
      register_partitioning;
    Alcotest.test_case "fates: timeout optional" `Quick timeout_write_optional;
    Alcotest.test_case "fates: resolved constrains" `Quick
      resolved_response_constrains;
    Alcotest.test_case "fates: ambiguous read dropped" `Quick
      ambiguous_read_dropped;
    Alcotest.test_case "counter histories" `Quick counter_histories;
    QCheck_alcotest.to_alcotest prop_sequential_accepted;
    QCheck_alcotest.to_alcotest prop_mutation_rejected;
    QCheck_alcotest.to_alcotest prop_counter_permutation;
    Alcotest.test_case "runner: deterministic replay" `Quick
      replay_deterministic;
    Alcotest.test_case "runner: clean run passes" `Quick clean_run_passes;
    Alcotest.test_case "runner: shrink preserves failure" `Quick
      shrink_preserves_failure;
    Alcotest.test_case "regression: rejoin stall (seed 392)" `Quick
      regression_rejoin_stall;
    Alcotest.test_case "regression: dropped-Accept wedge" `Quick
      regression_dropped_accept_wedge;
    Alcotest.test_case "nemesis: reconfig on rex" `Quick reconfig_nemesis_rex;
    Alcotest.test_case "nemesis: reconfig on shard" `Quick
      reconfig_nemesis_sharded;
    Alcotest.test_case "nemesis: split+merge on shard" `Quick
      split_nemesis_sharded;
    Alcotest.test_case "nemesis: rolling upgrade on every stack" `Quick
      upgrade_nemesis_all_stacks;
    Alcotest.test_case "nemesis: topology no-op without hooks" `Quick
      topo_noop_without_hooks;
    Alcotest.test_case "nemesis: reconfig replaces an smr replica" `Quick
      (log_order_replacement Runner.Smr);
    Alcotest.test_case "nemesis: reconfig replaces a cbase replica" `Quick
      (log_order_replacement Runner.Cbase);
    Alcotest.test_case "regression: split rejections (seeds 1024, 1026)"
      `Quick split_rejection_is_not_an_execution;
    Alcotest.test_case "regression: split double commits (seed 2280)" `Quick
      split_double_commits_count_executions;
    Alcotest.test_case "canary: split keyed counter, dedup off" `Quick
      split_keyed_counter_canary;
  ]
