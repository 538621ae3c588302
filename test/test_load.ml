(* Tests for the open-loop load engine (lib/load) and the checker that
   survives it (lib/check Window + Sample): timing-wheel ordering,
   statistical validity of the arrival and key processes (fixed seeds),
   generator determinism across pull slicings and backends, windowed-vs-
   full checker equivalence on generated histories (including seeded
   non-linearizable ones), and the sampling recorder's bounded-memory
   accounting. *)

module W = Load.Wheel
module Gen = Load.Gen
module A = Load.Arrivals
module H = Check.History
module Lin = Check.Lin
module Win = Check.Window
module Spec = Check.Spec

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Timing wheel --- *)

let wheel_orders_timers () =
  let w = W.create ~tick:1e-3 ~now:0. () in
  let times = [ 0.5; 0.0017; 0.25; 0.0013; 3.7; 0.25; 1.0 ] in
  List.iteri (fun i at -> W.add w ~at (i, at)) times;
  check_int "length" (List.length times) (W.length w);
  let fired = ref [] in
  let n = W.pop_until w ~now:10. (fun _due v -> fired := v :: !fired) in
  check_int "all fired" (List.length times) n;
  check_int "drained" 0 (W.length w);
  let fired = List.rev !fired in
  (* due-time order, ties by insertion order *)
  let expect =
    List.stable_sort
      (fun (_, a) (_, b) -> compare a b)
      (List.mapi (fun i at -> (i, at)) times)
  in
  Alcotest.(check (list (pair int (float 0.))))
    "time order, ties stable" expect fired

let wheel_pop_until_partial () =
  let w = W.create ~tick:1e-3 ~now:0. () in
  List.iter (fun at -> W.add w ~at at) [ 0.1; 0.2; 0.3; 0.4 ];
  let fired = ref [] in
  let n1 = W.pop_until w ~now:0.25 (fun _ v -> fired := v :: !fired) in
  check_int "first slice" 2 n1;
  (match W.next_due w with
  | None -> Alcotest.fail "next_due empty with timers pending"
  | Some d -> check_bool "next_due never over-estimates" true (d <= 0.3));
  let n2 = W.pop_until w ~now:10. (fun _ v -> fired := v :: !fired) in
  check_int "second slice" 2 n2;
  Alcotest.(check (list (float 0.)))
    "order across slices" [ 0.1; 0.2; 0.3; 0.4 ] (List.rev !fired)

(* A timer parked on a higher level before the cursor moved can be due
   sooner than one added later on a lower level: next_due must see it. *)
let wheel_next_due_across_levels () =
  let w = W.create ~tick:1e-3 ~now:0. () in
  W.add w ~at:0.300 "first";
  check_int "nothing due yet" 0 (W.pop_until w ~now:0.100 (fun _ _ -> ()));
  W.add w ~at:0.350 "second";
  Alcotest.(check (option (float 0.))) "earliest across levels" (Some 0.300)
    (W.next_due w)

let wheel_rearm_during_pop () =
  (* A callback re-arming its own next timer (the session pattern) fires
     again within the same pop when due inside the window. *)
  let w = W.create ~tick:1e-3 ~now:0. () in
  let count = ref 0 in
  let rec arm at =
    W.add w ~at (fun due -> incr count; if due < 0.01 then arm (due +. 0.002))
  in
  arm 0.001;
  let fired = W.pop_until w ~now:1.0 (fun due f -> f due) in
  check_bool "re-armed timers fired in the same pop" true (fired >= 5);
  check_int "callback count matches" fired !count

let wheel_far_future_cascades () =
  (* Beyond the top level's span: clamped and re-cascaded, not lost. *)
  let w = W.create ~tick:1e-3 ~slots:4 ~levels:2 ~now:0. () in
  List.iter (fun at -> W.add w ~at at) [ 5.0; 0.002; 1000.0 ];
  let fired = ref [] in
  ignore (W.pop_until w ~now:2000. (fun _ v -> fired := v :: !fired));
  Alcotest.(check (list (float 0.)))
    "clamped timers survive cascade" [ 0.002; 5.0; 1000.0 ] (List.rev !fired)

let prop_wheel_sorted =
  QCheck.Test.make ~name:"wheel fires in due-time order" ~count:100
    QCheck.(list_of_size Gen.(1 -- 80) (float_range 0. 50.))
    (fun times ->
      let w = W.create ~tick:1e-2 ~now:0. () in
      List.iter (fun at -> W.add w ~at at) times;
      let fired = ref [] in
      (* pop in several slices to exercise cascading *)
      List.iter
        (fun now ->
          ignore (W.pop_until w ~now (fun _ v -> fired := v :: !fired)))
        [ 1.; 7.; 13.; 50.; 60. ];
      let fired = List.rev !fired in
      List.length fired = List.length times
      && fst
           (List.fold_left
              (fun (ok, last) v -> (ok && v >= last, v))
              (true, neg_infinity) fired))

(* --- Arrival statistics (fixed seeds: these are deterministic) --- *)

let poisson_interarrivals () =
  (* Superposed fleet arrivals at Steady λ are Poisson: merged-stream
     gaps are Exp(1/λ) — mean 1/λ, variance 1/λ². *)
  let lambda = 2000. in
  let g =
    Gen.create ~sessions:500 ~duration:10.0 ~profile:(A.Steady lambda)
      ~keys:16 ~theta:0.9 ~read_ratio:0.5 ~seed:42 ()
  in
  let times = ref [] in
  ignore (Gen.pull g ~until:10.0 (fun ev -> times := ev.Gen.at :: !times));
  let times = Array.of_list (List.rev !times) in
  let n = Array.length times in
  check_bool "enough arrivals" true (n > 15_000);
  let gaps = Array.init (n - 1) (fun i -> times.(i + 1) -. times.(i)) in
  let m = Array.length gaps in
  let mean = Array.fold_left ( +. ) 0. gaps /. float_of_int m in
  let var =
    Array.fold_left (fun a g -> a +. ((g -. mean) *. (g -. mean))) 0. gaps
    /. float_of_int m
  in
  let expect = 1. /. lambda in
  check_bool
    (Printf.sprintf "gap mean %.6f ~ %.6f" mean expect)
    true
    (Float.abs (mean -. expect) < 0.03 *. expect);
  check_bool
    (Printf.sprintf "gap variance %.3g ~ %.3g" var (expect *. expect))
    true
    (Float.abs (var -. (expect *. expect)) < 0.1 *. expect *. expect)

let zipf_chi_square () =
  (* Observed key frequencies against the analytic pmf. *)
  let n = 64 and draws = 100_000 in
  let z = Workload.Zipf.create ~n ~theta:0.9 in
  let rng = Sim.Rng.create 7 in
  let obs = Array.make n 0 in
  for _ = 1 to draws do
    let k = Workload.Zipf.sample z rng in
    obs.(k) <- obs.(k) + 1
  done;
  let chi2 = ref 0. in
  for k = 0 to n - 1 do
    let e = float_of_int draws *. Workload.Zipf.pmf z k in
    let d = float_of_int obs.(k) -. e in
    chi2 := !chi2 +. (d *. d /. e)
  done;
  (* 63 degrees of freedom: crit(0.999) ~ 103.4.  Deterministic seed, so
     this is a regression pin as much as a statistical test. *)
  check_bool
    (Printf.sprintf "chi^2 %.1f below 103.4 (63 dof)" !chi2)
    true (!chi2 < 103.4);
  check_bool "hottest rank is rank 0" true
    (Array.for_all (fun c -> c <= obs.(0)) obs)

let ramp_rate_rises () =
  let g =
    Gen.create ~sessions:200 ~duration:4.0
      ~profile:(A.Ramp { lo = 100.; hi = 900.; over = 4.0 })
      ~keys:8 ~theta:0.5 ~read_ratio:0.5 ~seed:9 ()
  in
  let early = ref 0 and late = ref 0 in
  ignore
    (Gen.pull g ~until:4.0 (fun ev ->
         if ev.Gen.at < 2.0 then incr early else incr late));
  check_bool
    (Printf.sprintf "ramp back-half (%d) >> front-half (%d)" !late !early)
    true
    (!late > 2 * !early)

(* --- Generator determinism --- *)

let ev_tuple (e : Gen.ev) = (e.Gen.at, e.Gen.session, e.Gen.seq, e.Gen.key, e.Gen.read)

let gen_slicing_invariant () =
  (* The trace must not depend on how the pulls are sliced. *)
  let mk () =
    Gen.create ~sessions:300 ~duration:2.0
      ~profile:(A.Burst { base = 200.; peak = 2000.; period = 0.5; duty = 0.3 })
      ~keys:32 ~theta:0.99 ~read_ratio:0.3 ~seed:123 ()
  in
  let collect steps =
    let g = mk () in
    let out = ref [] in
    let t = ref 0. in
    while !t < 2.0 do
      t := !t +. steps;
      ignore (Gen.pull g ~until:!t (fun ev -> out := ev_tuple ev :: !out))
    done;
    ignore (Gen.pull g ~until:2.0 (fun ev -> out := ev_tuple ev :: !out));
    List.rev !out
  in
  let a = collect 1e-3 and b = collect 0.37 in
  check_int "same count" (List.length a) (List.length b);
  check_bool "same trace under different slicings" true (a = b)

let engine_trace_cross_backend () =
  (* Same config, null target: the sim run and the real-domains run must
     produce byte-identical trace witnesses. *)
  let cfg =
    Load.Engine.config ~keys:64 ~trace_cap:256 ~sessions:2_000
      ~profile:(A.Steady 1200.) ~duration:0.25 ~seed:5 ()
  in
  let sim_st =
    let eng = Sim.Engine.create ~seed:5 ~num_nodes:2 () in
    let result = ref None in
    ignore
      (Sim.Engine.spawn eng ~node:0 ~name:"load" (fun () ->
           result :=
             Some
               (Load.Engine.run (Par.Backend.of_sim eng) ~node:0
                  ~target:Load.Engine.null_target cfg)));
    Sim.Engine.run ~until:30.0 eng;
    Option.get !result
  in
  let dom_st =
    let d = Par.Domains.create ~seed:5 () in
    Fun.protect
      ~finally:(fun () -> Par.Domains.shutdown d)
      (fun () ->
        let result = Atomic.make None in
        Par.Domains.spawn d ~node:0 (fun () ->
            Atomic.set result
              (Some
                 (Load.Engine.run (Par.Domains.backend d) ~node:0
                    ~target:Load.Engine.null_target cfg)));
        Par.Domains.join d;
        Option.get (Atomic.get result))
  in
  check_int "same generated" sim_st.Load.Engine.generated
    dom_st.Load.Engine.generated;
  check_bool "identical trace witness" true
    (sim_st.Load.Engine.trace = dom_st.Load.Engine.trace);
  check_int "accounting: sim" sim_st.Load.Engine.generated
    (sim_st.Load.Engine.admitted + sim_st.Load.Engine.shed_session
   + sim_st.Load.Engine.shed_queue);
  check_int "all ok on null target" dom_st.Load.Engine.admitted
    dom_st.Load.Engine.ok

(* --- Windowed checker vs the full checker --- *)

let ent id client request invoke return_ fate =
  { H.id; client; request; invoke; return_; fate }

(* Generate a small register history: choose linearization points inside
   each op's interval and derive responses (linearizable by
   construction), then sometimes corrupt one response.  The windowed
   verdict must match the full checker's on every draw. *)
let random_history rng =
  let n = 2 + Sim.Rng.int rng 10 in
  let vals = [| "a"; "b"; "c" |] in
  let ops =
    Array.init n (fun i ->
        let inv = Sim.Rng.float rng 10.0 in
        let dur = 0.01 +. Sim.Rng.float rng 2.0 in
        let lp = inv +. Sim.Rng.float rng dur in
        let req =
          if Sim.Rng.bool rng then "GET k"
          else if Sim.Rng.int rng 4 = 0 then "DEL k"
          else "SET k " ^ vals.(Sim.Rng.int rng 3)
        in
        (i, req, inv, inv +. dur, lp))
  in
  let by_lp = Array.copy ops in
  Array.sort (fun (_, _, _, _, a) (_, _, _, _, b) -> compare a b) by_lp;
  let state = ref "NOTFOUND" in
  let resp = Array.make n "" in
  Array.iter
    (fun (i, req, _, _, _) ->
      match Spec.words req with
      | [ "SET"; _; v ] ->
        state := v;
        resp.(i) <- "OK"
      | [ "DEL"; _ ] ->
        state := "NOTFOUND";
        resp.(i) <- "OK"
      | _ -> resp.(i) <- !state)
    by_lp;
  (* corrupt one response half the time *)
  if Sim.Rng.bool rng then begin
    let i = Sim.Rng.int rng n in
    let (_, req, _, _, _) = ops.(i) in
    if (match Spec.words req with [ "GET"; _ ] -> true | _ -> false) then
      resp.(i) <- (if resp.(i) = "a" then "b" else "a")
  end;
  (* occasionally leave a write undecided (client gave up) *)
  Array.to_list ops
  |> List.map (fun (i, req, inv, ret, _) ->
         let timeout =
           Sim.Rng.int rng 8 = 0
           && match Spec.words req with [ "GET"; _ ] -> false | _ -> true
         in
         if timeout then ent i i req inv Float.infinity H.Timed_out
         else ent i i req inv ret (H.Returned resp.(i)))

let window_matches_lin () =
  let rng = Sim.Rng.create 4242 in
  let lin_seen = ref 0 and nonlin_seen = ref 0 in
  for _ = 1 to 300 do
    let entries = random_history rng in
    let full = (Lin.check Spec.register entries).Lin.verdict in
    let windowed = (Win.check Spec.register entries).Win.verdict in
    (match (full, windowed) with
    | Lin.Linearizable, Lin.Linearizable -> incr lin_seen
    | Lin.Non_linearizable _, Lin.Non_linearizable _ -> incr nonlin_seen
    | Lin.Limit, _ | _, Lin.Limit ->
      Alcotest.fail "budget tripped on a tiny history"
    | a, b ->
      Alcotest.failf "verdicts diverge: full=%s windowed=%s on\n%s"
        (match a with Lin.Linearizable -> "LIN" | _ -> "NONLIN")
        (match b with Lin.Linearizable -> "LIN" | _ -> "NONLIN")
        (String.concat "\n" (List.map (fun e -> e.H.request) entries)));
    ignore windowed
  done;
  check_bool
    (Printf.sprintf "exercised both verdicts (%d lin, %d nonlin)" !lin_seen
       !nonlin_seen)
    true
    (!lin_seen > 20 && !nonlin_seen > 20)

let window_seeded_nonlin () =
  (* The canonical stale read, decided across two quiescent windows. *)
  let entries =
    [
      ent 0 0 "SET k a" 0. 1. (H.Returned "OK");
      ent 1 1 "SET k b" 2. 3. (H.Returned "OK");
      ent 2 2 "GET k" 10. 11. (H.Returned "a");
    ]
  in
  let r = Win.check Spec.register entries in
  check_bool "stale read caught" true
    (match r.Win.verdict with Lin.Non_linearizable _ -> true | _ -> false);
  check_bool "took several windows" true (r.Win.windows >= 2)

let window_carries_undecided () =
  (* A timed-out write carried across a cut must be allowed to linearize
     in a later window... *)
  let entries =
    [
      ent 0 0 "SET k a" 0. 1. (H.Returned "OK");
      ent 1 1 "SET k b" 2. Float.infinity H.Timed_out;
      ent 2 2 "GET k" 10. 11. (H.Returned "b");
    ]
  in
  let r = Win.check Spec.register entries in
  check_bool "undecided write explains later read" true
    (match r.Win.verdict with Lin.Linearizable -> true | _ -> false);
  (* ...and a commit-resolved write that can never linearize must fail
     at close, exactly as in the full checker: this INC committed with
     response "1", but "1" was already taken by an INC that returned
     before it was even invoked. *)
  let entries_bad =
    [
      ent 0 0 "INC k a" 0. 1. (H.Returned "1");
      ent 1 1 "INC k b" 2. Float.infinity (H.Resolved "1");
    ]
  in
  let full = (Lin.check Spec.keyed_counter entries_bad).Lin.verdict in
  let windowed = (Win.check Spec.keyed_counter entries_bad).Win.verdict in
  check_bool "full checker rejects unconsumable resolved write" true
    (match full with Lin.Non_linearizable _ -> true | _ -> false);
  check_bool "windowed agrees" true
    (match windowed with Lin.Non_linearizable _ -> true | _ -> false)

let window_bot_pins () =
  (* From ⊥, the first pinnable response re-anchors the model. *)
  let cs = Win.make ~bot:true Spec.keyed_counter in
  let op req resp inv ret =
    { Win.o_req = req; o_resp = Some resp; o_must = true; o_inv = inv; o_ret = ret }
  in
  (match
     Win.advance Spec.keyed_counter cs
       [| op "INC k x" "5" 0. 1.; op "GET k" "5" 2. 3. |]
   with
  | Ok cs' -> (
    check_int "one config after pin" 1 (Win.cardinal cs');
    match Win.advance Spec.keyed_counter cs' [| op "GET k" "5" 4. 5. |] with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "pinned state should accept consistent read")
  | Error _ -> Alcotest.fail "pinnable window rejected from bot");
  (* a contradiction after the pin is still caught *)
  let cs = Win.make ~bot:true Spec.keyed_counter in
  match
    Win.advance Spec.keyed_counter cs
      [| op "INC k x" "5" 0. 1.; op "GET k" "9" 2. 3. |]
  with
  | Error (Win.Nonlin _) -> ()
  | Ok _ | Error (Win.Limit _) ->
    Alcotest.fail "contradiction from pinned state not caught"

(* --- Sampling recorder --- *)

let sample_sequential_ok () =
  let sm = Check.Sample.create ~seed:1 Spec.keyed_counter in
  let id1 = Check.Sample.invoke sm ~now:0. ~client:0 ~request:"INC k a" in
  Check.Sample.finish sm ~now:1. id1 (Some "1");
  let id2 = Check.Sample.invoke sm ~now:2. ~client:1 ~request:"INC k b" in
  Check.Sample.finish sm ~now:3. id2 (Some "2");
  let id3 = Check.Sample.invoke sm ~now:4. ~client:0 ~request:"GET k" in
  Check.Sample.finish sm ~now:5. id3 (Some "2");
  Check.Sample.finalize sm;
  check_bool "clean history passes" true (Check.Sample.ok sm);
  let s = Check.Sample.stats sm in
  check_int "ops recorded" 3 s.Check.Sample.recorded_ops;
  check_bool "windows advanced" true (s.Check.Sample.windows >= 1)

let sample_detects_skew () =
  let sm = Check.Sample.create ~seed:1 Spec.keyed_counter in
  let id1 = Check.Sample.invoke sm ~now:0. ~client:0 ~request:"INC k a" in
  Check.Sample.finish sm ~now:1. id1 (Some "1");
  (* counter jumps: the value "3" is unexplainable *)
  let id2 = Check.Sample.invoke sm ~now:2. ~client:1 ~request:"GET k" in
  Check.Sample.finish sm ~now:3. id2 (Some "3");
  Check.Sample.finalize sm;
  check_bool "skew flagged" true (not (Check.Sample.ok sm));
  match Check.Sample.violations sm with
  | { Check.Sample.v_kind = "non-linearizable"; _ } :: _ -> ()
  | v :: _ -> Alcotest.failf "wrong kind %s" v.Check.Sample.v_kind
  | [] -> Alcotest.fail "no violation recorded"

let sample_window_cap_reanchors () =
  (* One op stays in flight forever, so the key never quiesces; the
     buffer must hit window_cap and re-anchor at ⊥ instead of growing. *)
  let sm = Check.Sample.create ~seed:1 ~window_cap:4 Spec.keyed_counter in
  let blocker = Check.Sample.invoke sm ~now:0. ~client:99 ~request:"INC k z" in
  for i = 1 to 10 do
    let id =
      Check.Sample.invoke sm
        ~now:(float_of_int i)
        ~client:i
        ~request:(Printf.sprintf "INC k x%d" i)
    in
    Check.Sample.finish sm ~now:(float_of_int i +. 0.5) id
      (Some (string_of_int i))
  done;
  let s = Check.Sample.stats sm in
  check_bool "reanchored at least once" true (s.Check.Sample.resets >= 1);
  check_bool "memory bounded by cap" true (s.Check.Sample.max_live_ops <= 8);
  Check.Sample.finish sm ~now:20. blocker (Some "11");
  Check.Sample.finalize sm;
  check_bool "resets are not violations" true
    (Check.Sample.violations sm = [])

let sample_reservoir_bounds_keys () =
  let sm = Check.Sample.create ~seed:3 ~keys_cap:4 Spec.keyed_counter in
  for i = 0 to 19 do
    let id =
      Check.Sample.invoke sm ~now:(float_of_int i) ~client:i
        ~request:(Printf.sprintf "INC key%d a" i)
    in
    Check.Sample.finish sm ~now:(float_of_int i +. 0.1) id (Some "1")
  done;
  Check.Sample.finalize sm;
  let s = Check.Sample.stats sm in
  check_int "all keys seen" 20 s.Check.Sample.seen_keys;
  check_bool "tracked bounded" true (s.Check.Sample.tracked_keys <= 4);
  check_bool "untracked ops skipped" true (s.Check.Sample.skipped_ops > 0);
  check_bool "still ok" true (Check.Sample.ok sm)

let sample_reject_accounting () =
  let sm = Check.Sample.create ~seed:1 Spec.keyed_counter in
  let id1 = Check.Sample.invoke sm ~now:0. ~client:0 ~request:"INC k a" in
  Check.Sample.finish sm ~now:1. id1 (Some "1");
  let id2 = Check.Sample.invoke sm ~now:2. ~client:1 ~request:"INC k b" in
  Check.Sample.reject sm ~now:3. id2;
  let id3 = Check.Sample.invoke sm ~now:4. ~client:2 ~request:"GET k" in
  (* the shed INC must NOT count: 1, not 2 *)
  Check.Sample.finish sm ~now:5. id3 (Some "1");
  Check.Sample.finalize sm;
  check_bool "shed op excluded from linearization" true (Check.Sample.ok sm);
  let s = Check.Sample.stats sm in
  check_int "rejection counted" 1 s.Check.Sample.rejected_ops

let suite =
  [
    Alcotest.test_case "wheel: due-time order with ties" `Quick
      wheel_orders_timers;
    Alcotest.test_case "wheel: next_due across levels" `Quick
      wheel_next_due_across_levels;
    Alcotest.test_case "wheel: partial pops + next_due" `Quick
      wheel_pop_until_partial;
    Alcotest.test_case "wheel: re-arm during pop" `Quick wheel_rearm_during_pop;
    Alcotest.test_case "wheel: far-future cascade" `Quick
      wheel_far_future_cascades;
    QCheck_alcotest.to_alcotest prop_wheel_sorted;
    Alcotest.test_case "poisson interarrival mean/variance" `Quick
      poisson_interarrivals;
    Alcotest.test_case "zipf chi-square vs pmf" `Quick zipf_chi_square;
    Alcotest.test_case "ramp profile rate rises" `Quick ramp_rate_rises;
    Alcotest.test_case "gen: trace invariant under pull slicing" `Quick
      gen_slicing_invariant;
    Alcotest.test_case "engine: identical trace on sim and domains" `Quick
      engine_trace_cross_backend;
    Alcotest.test_case "window = full checker on random histories" `Quick
      window_matches_lin;
    Alcotest.test_case "window: seeded stale read caught" `Quick
      window_seeded_nonlin;
    Alcotest.test_case "window: undecided ops carried across cuts" `Quick
      window_carries_undecided;
    Alcotest.test_case "window: bot re-anchor pins state" `Quick
      window_bot_pins;
    Alcotest.test_case "sample: clean sequential history" `Quick
      sample_sequential_ok;
    Alcotest.test_case "sample: detects counter skew" `Quick
      sample_detects_skew;
    Alcotest.test_case "sample: window_cap forces bot re-anchor" `Quick
      sample_window_cap_reanchors;
    Alcotest.test_case "sample: reservoir bounds tracked keys" `Quick
      sample_reservoir_bounds_keys;
    Alcotest.test_case "sample: rejected op excluded, counted" `Quick
      sample_reject_accounting;
  ]
