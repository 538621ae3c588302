(* Tests for the open-loop load engine (lib/load) and the checker that
   survives it (lib/check Window + Sample): the generator's ordering
   contract and golden traces, statistical validity of the arrival and
   key processes (fixed seeds), generator determinism across pull
   slicings and backends, windowed-vs-full checker equivalence on generated histories (including seeded
   non-linearizable ones), and the sampling recorder's bounded-memory
   accounting. *)

module Gen = Load.Gen
module A = Load.Arrivals
module H = Check.History
module Lin = Check.Lin
module Win = Check.Window
module Spec = Check.Spec

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

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

(* The guide table only brackets the search: at every CDF value, every
   guide boundary j/n, one ulp either side of each, and both ends of
   [0, 1), [index_of] returns the first rank whose CDF value is >= u, as
   a full binary search does.  Uniform tables of 6 and 10 ranks hold
   draws that float rounding puts outside their bracket. *)
let zipf_guide_exact () =
  List.iter
    (fun n ->
      List.iter
        (fun theta ->
          let z = Workload.Zipf.create ~n ~theta in
          let cdf = Workload.Zipf.cdf z in
          let rec search u lo hi =
            if lo >= hi then lo
            else
              let mid = (lo + hi) / 2 in
              if cdf mid >= u then search u lo mid else search u (mid + 1) hi
          in
          let bad = ref 0 in
          let probe u =
            if Workload.Zipf.index_of z u <> search u 0 (n - 1) then incr bad
          in
          probe 0.;
          probe (Float.pred 1.0);
          let around c =
            List.iter
              (fun u -> if u >= 0. && u < 1. then probe u)
              [ c; Float.pred c; Float.succ c ]
          in
          for i = 0 to n - 1 do
            around (cdf i);
            around (float_of_int i /. float_of_int n)
          done;
          check_int (Printf.sprintf "n=%d theta=%g mismatches" n theta) 0 !bad)
        [ 0.; 0.5; 0.99; 1.5 ])
    [ 1; 2; 3; 6; 10; 4096; 100_000 ]

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

(* --- Generator goldens ---

   Digests of whole traces and of the next_due sequence, pinned at the
   commit before the due-tick arrays replaced the timer wheel: the arrays
   must reproduce the wheel's order bit for bit, its boundary-tick quirk
   included (see gen.ml). *)

let add_ev buf (e : Gen.ev) =
  Buffer.add_int64_le buf (Int64.bits_of_float e.Gen.at);
  Buffer.add_int32_le buf (Int32.of_int e.Gen.session);
  Buffer.add_int32_le buf (Int32.of_int e.Gen.seq);
  Buffer.add_int32_le buf (Int32.of_int e.Gen.key);
  Buffer.add_char buf (if e.Gen.read then 'r' else 'w')

(* The trace pulled in [step]-second slices ([None]: one pull). *)
let trace_digest mk ~duration step =
  let g = mk () in
  let buf = Buffer.create 4096 in
  (match step with
  | None -> ()
  | Some step ->
    let t = ref 0. in
    while !t < duration do
      t := !t +. step;
      ignore (Gen.pull g ~until:!t (add_ev buf))
    done);
  ignore (Gen.pull g ~until:duration (add_ev buf));
  check_bool "drained" true (Gen.finished g);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* The dispatcher's loop in Load.Engine, without the engine: pull to
   now, sleep to next_due (never less than a tick). *)
let next_due_digest mk =
  let g = mk () in
  let buf = Buffer.create 4096 in
  let rec loop rel =
    ignore (Gen.pull g ~until:rel (add_ev buf));
    match Gen.next_due g with
    | None -> ()
    | Some at ->
      Buffer.add_int64_le buf (Int64.bits_of_float at);
      loop (rel +. Float.max (at -. rel) Gen.tick)
  in
  loop 0.;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let golden_gens =
  let gen ~sessions ~duration profile ~seed () =
    Gen.create ~sessions ~duration ~profile ~keys:4096 ~theta:0.99
      ~read_ratio:0.5 ~seed ()
  in
  [
    ( "steady 20k sessions 8k req/s", 2.0,
      gen ~sessions:20_000 ~duration:2.0 (A.Steady 8000.) ~seed:1,
      ("bd67c3e9e05de1b66747092a0f280652", "5d3f7b33f36606d3bcdd76487b4e8d87") );
    ( "steady 2k sessions 1.5k req/s", 3.0,
      gen ~sessions:2_000 ~duration:3.0 (A.Steady 1500.) ~seed:2,
      ("7646a73941d50d4686b314f8bc60475b", "7b8f4813be1472910f57b705c8627d5f") );
    ( "burst", 2.0,
      gen ~sessions:300 ~duration:2.0
        (A.Burst { base = 200.; peak = 2000.; period = 0.5; duty = 0.3 })
        ~seed:3,
      ("5114c8f055da10c37b88e5a42fc605e5", "bc2121e52a6bdf8eb7610afb0482e97b") );
    ( "ramp", 4.0,
      gen ~sessions:200 ~duration:4.0
        (A.Ramp { lo = 100.; hi = 900.; over = 4.0 })
        ~seed:4,
      ("8e63766b43b6c57f9df6fd06c8299b97", "367ebae8b686f66445d47f2f97f91ebb") );
    ( "diurnal", 4.0,
      gen ~sessions:500 ~duration:4.0
        (A.Diurnal { base = 100.; peak = 1000.; period = 2.0 })
        ~seed:5,
      ("6076534da87a88b308cc94a824d1c565", "44ce8e008e8076528b7230f22349460e") );
    (* gaps around 100 s: most arrivals are filed more than 2^16 ticks
       ahead *)
    ( "steady 50 sessions 0.5 req/s", 400.,
      gen ~sessions:50 ~duration:400. (A.Steady 0.5) ~seed:6,
      ("7fc3dbd793205dfdfad76505bc258f20", "12864795af12a85857818df4f67615e0") );
  ]

let gen_golden_traces () =
  List.iter
    (fun (name, duration, mk, (trace, next_due)) ->
      List.iter
        (fun (slice, step) ->
          Alcotest.(check string)
            (Printf.sprintf "%s, %s" name slice)
            trace
            (trace_digest mk ~duration step))
        [ ("one pull", None); ("1 ms slices", Some 1e-3);
          ("370 ms slices", Some 0.37) ];
      Alcotest.(check string)
        (name ^ ", next_due sequence")
        next_due (next_due_digest mk))
    golden_gens

(* The ordering contract, event by event: pulled one tick at a time, an
   arrival due in tick [k] and filed (its session's previous arrival
   fired, or the generator was created) at tick [cur] fires at tick
   [cur + 1] if [k <= cur], at [k + 1] if [k] is a 256-tick boundary
   filed at least 256 ticks ahead, and at [k] otherwise; within a tick,
   in due-time order.  The pinned case is the boundary rule at tick 512:
   an arrival due early in the tick and filed at tick 256 or before
   fires after one due later in the tick and filed within 256 ticks. *)
let gen_boundary_rule () =
  let tick_of at = int_of_float (Float.floor (at /. Gen.tick)) in
  let sessions = 200 in
  let g =
    Gen.create ~sessions ~duration:1.0 ~profile:(A.Steady 1000.) ~keys:16
      ~theta:0.5 ~read_ratio:0.5 ~seed:1 ()
  in
  let filed = Array.make sessions 0 in
  let fired_512 = ref [] in
  for k = 1 to 1000 do
    let last = ref neg_infinity in
    ignore
      (Gen.pull g
         ~until:((float_of_int k +. 0.5) *. Gen.tick)
         (fun ev ->
           let due = tick_of ev.Gen.at and cur = filed.(ev.Gen.session) in
           let expect =
             if due <= cur then cur + 1
             else if due - cur >= 256 && due land 255 = 0 then due + 1
             else due
           in
           check_int "fire tick" expect k;
           check_bool "due-time order within a tick" true (ev.Gen.at >= !last);
           last := ev.Gen.at;
           if due = 512 then fired_512 := (ev.Gen.at, cur) :: !fired_512;
           filed.(ev.Gen.session) <- k))
  done;
  check_bool "drained" true (Gen.finished g);
  (* delivery order of the arrivals due in tick 512 *)
  match List.rev !fired_512 with
  | [ (late_at, late_filed); (early_at, early_filed) ] ->
    check_bool "filed within 256 ticks, fires first" true (late_filed > 256);
    check_bool "filed 256+ ticks ahead, fires second" true (early_filed <= 256);
    check_bool "out of due-time order" true (early_at < late_at)
  | l -> Alcotest.failf "%d arrivals due in tick 512" (List.length l)

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
    Alcotest.test_case "poisson interarrival mean/variance" `Quick
      poisson_interarrivals;
    Alcotest.test_case "zipf chi-square vs pmf" `Quick zipf_chi_square;
    Alcotest.test_case "zipf: guide table matches the full search" `Quick
      zipf_guide_exact;
    Alcotest.test_case "ramp profile rate rises" `Quick ramp_rate_rises;
    Alcotest.test_case "gen: trace invariant under pull slicing" `Quick
      gen_slicing_invariant;
    Alcotest.test_case "gen: golden traces and next_due" `Quick
      gen_golden_traces;
    Alcotest.test_case "gen: boundary-tick rule, pinned at tick 512" `Quick
      gen_boundary_rule;
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
