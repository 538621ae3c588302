(* Tests for trace data structures: events, cuts, consistency, prefix,
   deltas and vector clocks. *)

let _astring_contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let mk_event ?(kind = Event.Acquire) ?(resource = 1) ?(version = 0)
    ?(payload = "") slot clock =
  { Event.id = { slot; clock }; kind; resource; version; payload }

let id slot clock : Event.Id.t = { slot; clock }

(* Build the two-thread example of paper Fig. 2: t0 locks/unlocks L, then
   t1 locks it; one causal edge (t0,2) -> (t1,1). *)
let fig2_trace () =
  let t = Trace.create ~slots:2 () in
  Trace.append t (mk_event 0 1 ~kind:Event.Acquire);
  Trace.append t (mk_event 0 2 ~kind:Event.Release);
  Trace.append t (mk_event 1 1 ~kind:Event.Acquire);
  Trace.append t (mk_event 1 2 ~kind:Event.Release);
  Trace.add_edge t ~src:(id 0 2) ~dst:(id 1 1);
  t

let event_roundtrip () =
  let e = mk_event 3 17 ~kind:Event.Try_fail ~resource:42 ~version:7 ~payload:"xy" in
  let e' = Codec.decode Event.read (Codec.encode (Fun.flip Event.write) e) in
  Alcotest.(check bool) "event roundtrip" true (e = e')

let event_wire_size_is_small () =
  (* The paper reports ~16 bytes per synchronization event. *)
  let e = mk_event 3 1000 ~kind:Event.Acquire ~resource:200 ~version:900 in
  let n = Event.wire_size e in
  Alcotest.(check bool) (Printf.sprintf "size %d <= 16" n) true (n <= 16)

let append_enforces_clock_order () =
  let t = Trace.create ~slots:1 () in
  Trace.append t (mk_event 0 1);
  (match Trace.append t (mk_event 0 3) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "gap in clocks must be rejected");
  match Trace.append t (mk_event 0 1) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "duplicate clock must be rejected"

let edge_validation () =
  let t = fig2_trace () in
  (match Trace.add_edge t ~src:(id 0 1) ~dst:(id 0 2) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "intra-slot edge must be rejected");
  match Trace.add_edge t ~src:(id 0 9) ~dst:(id 1 1) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "dangling source must be rejected"

let incoming_edges () =
  let t = fig2_trace () in
  Alcotest.(check int) "one incoming edge" 1 (List.length (Trace.incoming t (id 1 1)));
  Alcotest.(check bool)
    "edge source" true
    (Event.Id.equal (List.hd (Trace.incoming t (id 1 1))) (id 0 2));
  Alcotest.(check int) "no incoming" 0 (List.length (Trace.incoming t (id 0 1)))

let cut_consistency () =
  (* Paper Fig. 2: c1 = [3;2] consistent; c2 = [4;2] would be inconsistent
     with an edge (t1,3) -> (t0,4).  Model that exact shape. *)
  let t = Trace.create ~slots:2 () in
  for c = 1 to 4 do
    Trace.append t (mk_event 0 c)
  done;
  for c = 1 to 3 do
    Trace.append t (mk_event 1 c)
  done;
  Trace.add_edge t ~src:(id 1 3) ~dst:(id 0 4);
  let consistent = Trace.Cut.of_array [| 3; 2 |] in
  let inconsistent = Trace.Cut.of_array [| 4; 2 |] in
  Alcotest.(check bool) "c1 consistent" true (Trace.is_consistent t consistent);
  Alcotest.(check bool) "c2 inconsistent" false (Trace.is_consistent t inconsistent)

let last_consistent_cut () =
  let t = Trace.create ~slots:2 () in
  for c = 1 to 4 do
    Trace.append t (mk_event 0 c)
  done;
  for c = 1 to 3 do
    Trace.append t (mk_event 1 c)
  done;
  Trace.add_edge t ~src:(id 1 3) ~dst:(id 0 4);
  let repaired = Trace.last_consistent t (Trace.Cut.of_array [| 4; 2 |]) in
  Alcotest.(check (array int))
    "drops the blocked event" [| 3; 2 |]
    (Trace.Cut.to_array repaired);
  (* A consistent cut is a fixpoint. *)
  let c = Trace.Cut.of_array [| 3; 2 |] in
  Alcotest.(check (array int))
    "fixpoint" (Trace.Cut.to_array c)
    (Trace.Cut.to_array (Trace.last_consistent t c))

let last_consistent_cascades () =
  (* A chain of edges must cascade: cutting one event out forces its
     causal descendants out too. *)
  let t = Trace.create ~slots:3 () in
  Trace.append t (mk_event 0 1);
  Trace.append t (mk_event 1 1);
  Trace.append t (mk_event 1 2);
  Trace.append t (mk_event 2 1);
  Trace.add_edge t ~src:(id 0 1) ~dst:(id 1 1);
  Trace.add_edge t ~src:(id 1 2) ~dst:(id 2 1);
  (* Cut excludes (0,1) but includes everything else: (1,1) must go, hence
     (1,2), hence (2,1). *)
  let repaired = Trace.last_consistent t (Trace.Cut.of_array [| 0; 2; 1 |]) in
  Alcotest.(check (array int)) "cascade" [| 0; 0; 0 |] (Trace.Cut.to_array repaired)

let prefix_property () =
  let small = fig2_trace () in
  let big = fig2_trace () in
  Trace.append big (mk_event 0 3);
  Trace.add_edge big ~src:(id 1 2) ~dst:(id 0 3);
  Alcotest.(check bool) "small <= big" true (Trace.is_prefix small ~of_:big);
  Alcotest.(check bool) "big </= small" false (Trace.is_prefix big ~of_:small);
  Alcotest.(check bool) "reflexive" true (Trace.is_prefix small ~of_:small);
  (* Same shape, different event content: not a prefix. *)
  let differing = Trace.create ~slots:2 () in
  Trace.append differing (mk_event 0 1 ~kind:Event.Release);
  Alcotest.(check bool) "content differs" false (Trace.is_prefix differing ~of_:big)

let delta_roundtrip_and_apply () =
  let t = fig2_trace () in
  let base = Trace.Cut.zero ~slots:2 in
  let d = Trace.Delta.extract t ~base in
  Alcotest.(check int) "all events" 4 (List.length d.Trace.Delta.events);
  Alcotest.(check int) "all edges" 1 (List.length d.Trace.Delta.edges);
  let d' =
    Codec.decode Trace.Delta.read (Codec.encode (Fun.flip Trace.Delta.write) d)
  in
  let t' = Trace.create ~slots:2 () in
  (match Trace.Delta.apply t' d' with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "identical traces" true (Trace.is_prefix t ~of_:t');
  Alcotest.(check bool) "identical traces rev" true (Trace.is_prefix t' ~of_:t)

let delta_incremental () =
  let t = Trace.create ~slots:2 () in
  let mirror = Trace.create ~slots:2 () in
  let sync () =
    let d = Trace.Delta.extract t ~base:(Trace.end_cut mirror) in
    match Trace.Delta.apply mirror d with
    | Ok () -> ()
    | Error e -> Alcotest.fail e
  in
  Trace.append t (mk_event 0 1);
  sync ();
  Trace.append t (mk_event 1 1);
  Trace.append t (mk_event 0 2);
  Trace.add_edge t ~src:(id 1 1) ~dst:(id 0 2);
  sync ();
  sync ();
  (* empty delta is fine *)
  Alcotest.(check bool) "mirror caught up" true (Trace.is_prefix t ~of_:mirror);
  Alcotest.(check int) "mirror edges" 1 (Trace.edge_count mirror)

let delta_apply_rejects_wrong_base () =
  let t = fig2_trace () in
  let d = Trace.Delta.extract t ~base:(Trace.Cut.zero ~slots:2) in
  let t' = fig2_trace () in
  (* t' already has the events, so base 0 no longer matches. *)
  match Trace.Delta.apply t' d with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "must reject mismatched base"

let delta_apply_rejects_malformed () =
  let t = Trace.create ~slots:2 () in
  let d =
    {
      Trace.Delta.base = Trace.Cut.zero ~slots:2;
      upto = Trace.Cut.of_array [| 2; 0 |];
      events = [ mk_event 0 2 ];
      (* gap: clock 1 missing *)
      edges = [];
    }
  in
  (match Trace.Delta.apply t d with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "must reject non-contiguous events");
  Alcotest.(check int) "trace untouched" 0 (Trace.event_count t)

let cut_algebra () =
  let a = Trace.Cut.of_array [| 1; 5 |] in
  let b = Trace.Cut.of_array [| 2; 3 |] in
  Alcotest.(check (array int)) "min" [| 1; 3 |]
    (Trace.Cut.to_array (Trace.Cut.min a b));
  Alcotest.(check bool) "not leq" false (Trace.Cut.leq a b);
  Alcotest.(check bool) "includes" true (Trace.Cut.includes a (id 1 5));
  Alcotest.(check bool) "excludes" false (Trace.Cut.includes a (id 0 2));
  let c = Codec.decode Trace.Cut.read (Codec.encode (Fun.flip Trace.Cut.write) a) in
  Alcotest.(check bool) "cut roundtrip" true (Trace.Cut.equal a c)

(* --- Vector clocks --- *)

let vclock_basics () =
  let v = Vclock.create ~slots:3 in
  ignore (Vclock.tick v 0);
  ignore (Vclock.tick v 0);
  Vclock.observe v (id 1 5);
  Alcotest.(check int) "own" 2 (Vclock.get v 0);
  Alcotest.(check int) "observed" 5 (Vclock.get v 1);
  Alcotest.(check bool) "dominates old" true (Vclock.dominates v (id 1 4));
  Alcotest.(check bool) "not future" false (Vclock.dominates v (id 1 6));
  let u = Vclock.create ~slots:3 in
  Vclock.observe u (id 2 9);
  Vclock.join v u;
  Alcotest.(check int) "joined" 9 (Vclock.get v 2);
  Alcotest.(check bool) "leq" true (Vclock.leq u v)

(* --- Properties --- *)

(* Generate a random trace: a list of (slot, optional edge back to a random
   earlier event in another slot). *)
let random_trace_gen =
  QCheck.Gen.(
    let* slots = int_range 2 4 in
    let* n = int_range 0 60 in
    let* choices =
      list_repeat n (pair (int_bound (slots - 1)) (pair bool (int_bound 1000)))
    in
    return (slots, choices))

let build_random_trace (slots, choices) =
  let t = Trace.create ~slots () in
  let clocks = Array.make slots 0 in
  List.iter
    (fun (slot, (want_edge, r)) ->
      clocks.(slot) <- clocks.(slot) + 1;
      Trace.append t
        (mk_event slot clocks.(slot) ~kind:Event.Acquire ~resource:(r mod 7));
      if want_edge then begin
        (* pick a source event in some other nonempty slot *)
        let src_slot = (slot + 1 + (r mod (slots - 1))) mod slots in
        let src_slot = if src_slot = slot then (slot + 1) mod slots else src_slot in
        if clocks.(src_slot) > 0 then
          Trace.add_edge t
            ~src:(id src_slot (1 + (r mod clocks.(src_slot))))
            ~dst:(id slot clocks.(slot))
      end)
    choices;
  t

let prop_last_consistent_is_consistent =
  QCheck.Test.make ~name:"last_consistent yields a consistent cut" ~count:100
    (QCheck.make random_trace_gen) (fun spec ->
      let t = build_random_trace spec in
      let full = Trace.end_cut t in
      (* Chop one event off slot 0 to create potentially inconsistent cuts. *)
      let arr = Trace.Cut.to_array full in
      if arr.(0) > 0 then arr.(0) <- arr.(0) - 1;
      let cut = Trace.Cut.of_array arr in
      let fixed = Trace.last_consistent t cut in
      Trace.is_consistent t fixed && Trace.Cut.leq fixed cut)

let prop_delta_roundtrip =
  QCheck.Test.make ~name:"delta extract/apply reproduces the trace" ~count:100
    (QCheck.make random_trace_gen) (fun spec ->
      let t = build_random_trace spec in
      let t' = Trace.create ~slots:(Trace.num_slots t) () in
      let d = Trace.Delta.extract t ~base:(Trace.end_cut t') in
      let d =
        Codec.decode Trace.Delta.read
          (Codec.encode (Fun.flip Trace.Delta.write) d)
      in
      match Trace.Delta.apply t' d with
      | Error _ -> false
      | Ok () -> Trace.is_prefix t ~of_:t' && Trace.is_prefix t' ~of_:t)

let prop_full_cut_consistent =
  QCheck.Test.make ~name:"a recorded trace end is always consistent" ~count:100
    (QCheck.make random_trace_gen) (fun spec ->
      let t = build_random_trace spec in
      Trace.is_consistent t (Trace.end_cut t))

let suite =
  [
    Alcotest.test_case "event roundtrip" `Quick event_roundtrip;
    Alcotest.test_case "event wire size ~16B" `Quick event_wire_size_is_small;
    Alcotest.test_case "append clock order" `Quick append_enforces_clock_order;
    Alcotest.test_case "edge validation" `Quick edge_validation;
    Alcotest.test_case "incoming edges" `Quick incoming_edges;
    Alcotest.test_case "cut consistency (fig 2)" `Quick cut_consistency;
    Alcotest.test_case "last consistent cut" `Quick last_consistent_cut;
    Alcotest.test_case "last consistent cascades" `Quick last_consistent_cascades;
    Alcotest.test_case "prefix property" `Quick prefix_property;
    Alcotest.test_case "delta roundtrip+apply" `Quick delta_roundtrip_and_apply;
    Alcotest.test_case "delta incremental" `Quick delta_incremental;
    Alcotest.test_case "delta rejects wrong base" `Quick delta_apply_rejects_wrong_base;
    Alcotest.test_case "delta rejects malformed" `Quick delta_apply_rejects_malformed;
    Alcotest.test_case "cut algebra" `Quick cut_algebra;
    Alcotest.test_case "vclock basics" `Quick vclock_basics;
    QCheck_alcotest.to_alcotest prop_last_consistent_is_consistent;
    QCheck_alcotest.to_alcotest prop_delta_roundtrip;
    QCheck_alcotest.to_alcotest prop_full_cut_consistent;
  ]

(* Regression: a trace with a nonzero base (checkpoint horizon) must ship
   its edges in deltas — the binary search slices by absolute destination
   clock, not vec index. *)
let delta_extract_from_based_trace () =
  let base = Trace.Cut.of_array [| 100; 200 |] in
  let t = Trace.create ~base ~slots:2 () in
  Trace.append t (mk_event 0 101);
  Trace.append t (mk_event 1 201);
  Trace.append t (mk_event 1 202);
  (* A pre-base source is legal. *)
  Trace.add_edge t ~src:(id 0 50) ~dst:(id 1 201);
  Trace.add_edge t ~src:(id 0 101) ~dst:(id 1 202);
  let d = Trace.Delta.extract t ~base in
  Alcotest.(check int) "all events shipped" 3 (List.length d.Trace.Delta.events);
  Alcotest.(check int) "all edges shipped" 2 (List.length d.Trace.Delta.edges);
  (* Apply onto a mirror with the same base. *)
  let m = Trace.create ~base ~slots:2 () in
  (match
     Trace.Delta.read_apply
       (Codec.source (Codec.encode (Fun.flip Trace.Delta.write) d))
       m
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "mirror edges" 2 (Trace.edge_count m);
  Alcotest.(check int) "incoming across the base" 1
    (List.length (Trace.incoming m (id 1 201)));
  (* Incremental extraction from a mid cut also keeps edges. *)
  let mid = Trace.Cut.of_array [| 101; 201 |] in
  let d2 = Trace.Delta.extract t ~base:mid in
  Alcotest.(check int) "tail events" 1 (List.length d2.Trace.Delta.events);
  Alcotest.(check int) "tail edge" 1 (List.length d2.Trace.Delta.edges)

let based_trace_cuts () =
  let base = Trace.Cut.of_array [| 10; 0 |] in
  let t = Trace.create ~base ~slots:2 () in
  Trace.append t (mk_event 0 11);
  Alcotest.(check int) "slot_end absolute" 11 (Trace.slot_end t 0);
  Alcotest.(check bool) "find above base" true (Trace.find t (id 0 11) <> None);
  Alcotest.(check bool) "find below base" true (Trace.find t (id 0 5) = None);
  Alcotest.(check (array int)) "end cut" [| 11; 0 |]
    (Trace.Cut.to_array (Trace.end_cut t))

let regression_suite =
  [
    Alcotest.test_case "delta from based trace (edge slicing)" `Quick
      delta_extract_from_based_trace;
    Alcotest.test_case "based trace basics" `Quick based_trace_cuts;
  ]

let suite = suite @ regression_suite

(* --- Trace rendering (the §6.1 debugging workflow) --- *)

let render_dot_and_dump () =
  let t = fig2_trace () in
  let dot = Render.to_dot ~resource_name:(fun r -> Printf.sprintf "lock%d" r) t in
  Alcotest.(check bool) "has clusters" true
    (_astring_contains dot "cluster_slot0" && _astring_contains dot "cluster_slot1");
  Alcotest.(check bool) "has the causal edge" true
    (_astring_contains dot "e_0_2 -> e_1_1");
  Alcotest.(check bool) "names resources" true (_astring_contains dot "lock1");
  let hl = Render.to_dot ~highlight:[ id 1 1 ] t in
  Alcotest.(check bool) "highlight present" true (_astring_contains hl "fillcolor=red");
  let text = Render.dump t in
  Alcotest.(check bool) "dump mentions acquire" true (_astring_contains text "acquire");
  Alcotest.(check bool) "dump shows incoming" true (_astring_contains text "<=")

let render_window_bounded () =
  let t = Trace.create ~slots:2 () in
  for c = 1 to 100 do
    Trace.append t (mk_event 0 c);
    Trace.append t (mk_event 1 c);
    if c > 1 then Trace.add_edge t ~src:(id 0 (c - 1)) ~dst:(id 1 c)
  done;
  let center = Trace.Cut.of_array [| 50; 50 |] in
  let events, edges = Render.window t ~center ~radius:3 in
  Alcotest.(check int) "7 clocks x 2 slots" 14 (List.length events);
  Alcotest.(check bool) "edges only inside window" true
    (List.for_all
       (fun ((s : Event.Id.t), (d : Event.Id.t)) ->
         abs (s.clock - 50) <= 3 && abs (d.clock - 50) <= 3)
       edges)

let render_suite =
  [
    Alcotest.test_case "render dot + dump" `Quick render_dot_and_dump;
    Alcotest.test_case "render window bounded" `Quick render_window_bounded;
  ]

(* --- In-place compaction --- *)

let compact_keeps_spanning_edges () =
  let t = Trace.create ~slots:2 () in
  for c = 1 to 4 do
    Trace.append t (mk_event 0 c)
  done;
  for c = 1 to 4 do
    Trace.append t (mk_event 1 c)
  done;
  (* One edge entirely below the cut, one spanning it, one entirely above. *)
  Trace.add_edge t ~src:(id 0 1) ~dst:(id 1 1);
  Trace.add_edge t ~src:(id 0 2) ~dst:(id 1 3);
  Trace.add_edge t ~src:(id 0 4) ~dst:(id 1 4);
  let cut = Trace.Cut.of_array [| 2; 2 |] in
  Trace.compact t ~upto:cut;
  Alcotest.(check (array int)) "base advanced" [| 2; 2 |]
    (Trace.Cut.to_array (Trace.base_cut t));
  Alcotest.(check int) "events dropped" 4 (Trace.event_count t);
  Alcotest.(check int) "below-cut edge dropped" 2 (Trace.edge_count t);
  Alcotest.(check int) "incoming index follows" 2 (Trace.incoming_entries t);
  Alcotest.(check bool) "compacted event gone" true (Trace.find t (id 1 1) = None);
  Alcotest.(check bool) "live event stays" true (Trace.find t (id 1 3) <> None);
  (* The spanning edge survives with its pre-horizon source. *)
  Alcotest.(check bool) "spanning edge" true
    (List.exists (fun s -> Event.Id.equal s (id 0 2)) (Trace.incoming t (id 1 3)));
  (* Extraction from the new horizon ships it, and a checkpoint-based
     mirror accepts it. *)
  let d = Trace.Delta.extract t ~base:cut in
  Alcotest.(check int) "delta events" 4 (List.length d.Trace.Delta.events);
  Alcotest.(check int) "delta edges" 2 (List.length d.Trace.Delta.edges);
  let m = Trace.create ~base:cut ~slots:2 () in
  (match Trace.Delta.apply m d with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "mirror edges" 2 (Trace.edge_count m)

let compact_to_empty_and_continue () =
  let t = fig2_trace () in
  Trace.compact t ~upto:(Trace.end_cut t);
  Alcotest.(check int) "no events" 0 (Trace.event_count t);
  Alcotest.(check int) "no edges" 0 (Trace.edge_count t);
  Alcotest.(check int) "no incoming" 0 (Trace.incoming_entries t);
  (* Appending continues at the same absolute clocks as if nothing
     happened. *)
  Trace.append t (mk_event 0 3);
  Trace.append t (mk_event 1 3);
  Trace.add_edge t ~src:(id 0 3) ~dst:(id 1 3);
  (* Pre-horizon sources remain legal after compaction. *)
  Trace.append t (mk_event 1 4);
  Trace.add_edge t ~src:(id 0 2) ~dst:(id 1 4);
  Alcotest.(check (array int)) "end grows on" [| 3; 4 |]
    (Trace.Cut.to_array (Trace.end_cut t));
  let d = Trace.Delta.extract t ~base:(Trace.base_cut t) in
  Alcotest.(check int) "post-compaction delta" 3 (List.length d.Trace.Delta.events)

let compact_repeated_and_rejects () =
  let t = fig2_trace () in
  let cut = Trace.Cut.of_array [| 1; 1 |] in
  Trace.compact t ~upto:cut;
  let gen1 = Trace.compactions t in
  Alcotest.(check int) "one compaction" 1 gen1;
  (* Same cut again: nothing to drop, generation unchanged. *)
  Trace.compact t ~upto:cut;
  Alcotest.(check int) "idempotent" gen1 (Trace.compactions t);
  (* A stale (lower) cut is clamped, not an error. *)
  Trace.compact t ~upto:(Trace.Cut.zero ~slots:2);
  Alcotest.(check int) "stale cut no-op" gen1 (Trace.compactions t);
  Alcotest.(check int) "events kept" 2 (Trace.event_count t);
  (match Trace.compact t ~upto:(Trace.Cut.of_array [| 9; 9 |]) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "cut beyond end must be rejected");
  match Trace.compact t ~upto:(Trace.Cut.of_array [| 1 |]) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "arity mismatch must be rejected"

(* What the cursor writes is what a one-shot extraction encodes to. *)
let encode_delta d = Codec.encode (Fun.flip Trace.Delta.write) d

let write_next t cur =
  let b = Codec.sink () in
  Trace.Delta.write_next b ~upto:(Trace.end_cut t) t cur;
  Codec.contents b

let cursor_matches_extract () =
  let t = Trace.create ~slots:2 () in
  let cur = Trace.Delta.cursor t ~base:(Trace.end_cut t) in
  let step_and_check n =
    let base = Trace.Delta.cursor_base cur in
    let plain = encode_delta (Trace.Delta.extract t ~base) in
    Alcotest.(check string)
      (Printf.sprintf "step %d: cursor bytes equal plain extract's" n)
      plain (write_next t cur)
  in
  Trace.append t (mk_event 0 1);
  Trace.append t (mk_event 1 1);
  Trace.add_edge t ~src:(id 0 1) ~dst:(id 1 1);
  step_and_check 1;
  Trace.append t (mk_event 0 2);
  Trace.append t (mk_event 1 2);
  Trace.add_edge t ~src:(id 0 2) ~dst:(id 1 2);
  step_and_check 2;
  (* Empty window. *)
  step_and_check 3;
  (* A compaction invalidates the cached indices; the cursor must
     re-derive them transparently. *)
  Trace.append t (mk_event 0 3);
  Trace.append t (mk_event 1 3);
  Trace.add_edge t ~src:(id 0 3) ~dst:(id 1 3);
  Trace.compact t ~upto:(Trace.Cut.of_array [| 2; 2 |]);
  step_and_check 4;
  Alcotest.(check (array int)) "cursor at end" [| 3; 3 |]
    (Trace.Cut.to_array (Trace.Delta.cursor_base cur))

(* Compaction must be invisible to everything above the horizon: the same
   trace with and without a mid-point compaction extracts identical deltas
   and replays to the same end. *)
let prop_compaction_invisible =
  QCheck.Test.make ~name:"compaction is invisible above the horizon" ~count:100
    (QCheck.make random_trace_gen) (fun spec ->
      let control = build_random_trace spec in
      let compacted = build_random_trace spec in
      let mid =
        Trace.Cut.of_array
          (Array.map (fun w -> w / 2) (Trace.Cut.to_array (Trace.end_cut control)))
      in
      Trace.compact compacted ~upto:mid;
      let d_control = Trace.Delta.extract control ~base:mid in
      let d_compacted = Trace.Delta.extract compacted ~base:mid in
      (* Same delta, same wire bytes, and a checkpoint-based replica built
         from it converges to the same trace end. *)
      d_control = d_compacted
      && Codec.encode (Fun.flip Trace.Delta.write) d_control
         = Codec.encode (Fun.flip Trace.Delta.write) d_compacted
      &&
      let m = Trace.create ~base:mid ~slots:(Trace.num_slots control) () in
      match Trace.Delta.apply m d_compacted with
      | Error _ -> false
      | Ok () ->
        Trace.Cut.equal (Trace.end_cut m) (Trace.end_cut control)
        && Trace.edge_count m = Trace.edge_count compacted)

let prop_cursor_matches_extract =
  QCheck.Test.make ~name:"cursor extraction equals one-shot extraction"
    ~count:100 (QCheck.make random_trace_gen) (fun spec ->
      let t = build_random_trace spec in
      let mid =
        Trace.Cut.of_array
          (Array.map (fun w -> w / 2) (Trace.Cut.to_array (Trace.end_cut t)))
      in
      let cur = Trace.Delta.cursor t ~base:mid in
      let end_ = Trace.end_cut t in
      write_next t cur = encode_delta (Trace.Delta.extract t ~base:mid)
      && write_next t cur = encode_delta (Trace.Delta.extract t ~base:end_))

let compaction_suite =
  [
    Alcotest.test_case "compact keeps spanning edges" `Quick
      compact_keeps_spanning_edges;
    Alcotest.test_case "compact to empty + continue" `Quick
      compact_to_empty_and_continue;
    Alcotest.test_case "compact repeated + rejects" `Quick
      compact_repeated_and_rejects;
    Alcotest.test_case "cursor matches extract" `Quick cursor_matches_extract;
    QCheck_alcotest.to_alcotest prop_compaction_invisible;
    QCheck_alcotest.to_alcotest prop_cursor_matches_extract;
  ]

(* --- Delta wire format: v1 compactness; v0 is refused --- *)

(* Re-emit exactly what the pre-v1 writer produced: explicit cuts, events
   with explicit ids, edges as id pairs.  It is the size reference for
   v1, and [Delta.read] must refuse it. *)
let encode_legacy_v0 (d : Trace.Delta.t) =
  let b = Codec.sink () in
  Trace.Cut.write b d.Trace.Delta.base;
  Trace.Cut.write b d.Trace.Delta.upto;
  Codec.write_list b Event.write d.Trace.Delta.events;
  Codec.write_list b
    (fun b (src, dst) ->
      Event.Id.write b src;
      Event.Id.write b dst)
    d.Trace.Delta.edges;
  Codec.contents b

let legacy_v0_rejected () =
  let t = fig2_trace () in
  let d = Trace.Delta.extract t ~base:(Trace.Cut.zero ~slots:2) in
  match Codec.decode Trace.Delta.read (encode_legacy_v0 d) with
  | _ -> Alcotest.fail "v0 bytes decoded"
  | exception Codec.Decode_error _ -> ()

let v1_beats_v0_size () =
  let t = Trace.create ~slots:3 () in
  for c = 1 to 50 do
    for s = 0 to 2 do
      Trace.append t (mk_event s c ~resource:(c mod 7) ~version:c)
    done;
    if c > 1 then Trace.add_edge t ~src:(id 0 (c - 1)) ~dst:(id 1 c)
  done;
  let d = Trace.Delta.extract t ~base:(Trace.Cut.zero ~slots:3) in
  let v1 = Trace.Delta.wire_size d in
  let v0 = String.length (encode_legacy_v0 d) in
  Alcotest.(check bool)
    (Printf.sprintf "v1 %dB < v0 %dB" v1 v0)
    true (v1 < v0);
  (* The §6.3 target: under 16 bytes per synchronization event. *)
  let per_event = float_of_int v1 /. float_of_int (List.length d.Trace.Delta.events) in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f B/event < 16" per_event)
    true (per_event < 16.)

let wire_size_matches_encoding () =
  let t = fig2_trace () in
  let d = Trace.Delta.extract t ~base:(Trace.Cut.zero ~slots:2) in
  Alcotest.(check int) "delta counting sink exact"
    (String.length (Codec.encode (Fun.flip Trace.Delta.write) d))
    (Trace.Delta.wire_size d);
  let e = mk_event 3 17 ~kind:Event.Try_fail ~resource:42 ~version:7 ~payload:"xy" in
  Alcotest.(check int) "event counting sink exact"
    (String.length (Codec.encode (Fun.flip Event.write) e))
    (Event.wire_size e)

let prop_v1_roundtrip_structural =
  QCheck.Test.make ~name:"v1 delta codec roundtrips structurally" ~count:200
    (QCheck.make random_trace_gen) (fun spec ->
      let t = build_random_trace spec in
      let mid =
        Trace.Cut.of_array
          (Array.map (fun w -> w / 2) (Trace.Cut.to_array (Trace.end_cut t)))
      in
      let check base =
        let d = Trace.Delta.extract t ~base in
        let encoded = Codec.encode (Fun.flip Trace.Delta.write) d in
        d = Codec.decode Trace.Delta.read encoded
        && String.length encoded = Trace.Delta.wire_size d
      in
      check (Trace.Cut.zero ~slots:(Trace.num_slots t)) && check mid)

(* Only [Codec.Decode_error] may escape the v1 decoder: every truncation
   of an encoding raises it, and so may (but need not) an encoding with
   one byte overwritten, at every offset, by a generated byte. *)
let prop_v1_decode_fuzz =
  QCheck.Test.make ~name:"v1 delta decode: truncations and corruptions"
    ~count:100
    (QCheck.pair (QCheck.make random_trace_gen) QCheck.(int_bound 255))
    (fun (spec, byte) ->
      let t = build_random_trace spec in
      let d = Trace.Delta.extract t ~base:(Trace.Cut.zero ~slots:(Trace.num_slots t)) in
      let enc = Codec.encode (Fun.flip Trace.Delta.write) d in
      (* The fused decoder must be as strict, whatever it has applied. *)
      let decode s =
        (match
           Trace.Delta.read_apply (Codec.source s)
             (Trace.create ~slots:(Trace.num_slots t) ())
         with
        | Ok _ | Error _ -> ()
        | exception Codec.Decode_error _ -> ());
        Codec.decode Trace.Delta.read s
      in
      let n = String.length enc in
      List.for_all
        (fun len ->
          match decode (String.sub enc 0 len) with
          | _ -> false
          | exception Codec.Decode_error _ -> true)
        (List.init n Fun.id)
      && List.for_all
           (fun at ->
             match decode (String.mapi (fun i c -> if i = at then Char.chr byte else c) enc) with
             | _ -> true
             | exception Codec.Decode_error _ -> true)
           (List.init n Fun.id))

let codec_suite =
  [
    Alcotest.test_case "legacy v0 bytes rejected" `Quick legacy_v0_rejected;
    Alcotest.test_case "v1 smaller than v0, <16B/event" `Quick v1_beats_v0_size;
    Alcotest.test_case "counting sink sizes exact" `Quick
      wire_size_matches_encoding;
    QCheck_alcotest.to_alcotest prop_v1_roundtrip_structural;
    QCheck_alcotest.to_alcotest prop_v1_decode_fuzz;
  ]

let suite = suite @ render_suite @ compaction_suite @ codec_suite
