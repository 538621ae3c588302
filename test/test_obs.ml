(* lib/obs: histogram bucket/quantile math, registry keying, span
   collection, exporter well-formedness — plus a qcheck property pinning
   the documented quantile upper-bound guarantee, and a full-stack check
   that a replicated lock-server run surfaces its record/replay counters
   through the registry and exports a parseable Chrome trace. *)

open Sim
module R = Rex_core

(* --- A minimal JSON validity checker (no JSON library in the image).
   Parses the full grammar but builds nothing; [check_json] raises
   [Failure] on malformed input. *)

let check_json (s : string) =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let fail msg = failwith (Printf.sprintf "json: %s at %d" msg !pos) in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal w =
    String.iter expect w
  in
  let string_ () =
    expect '"';
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
          advance ();
          go ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
            | _ -> fail "bad \\u escape"
          done;
          go ()
        | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "control char in string"
      | Some _ ->
        advance ();
        go ()
    in
    go ()
  in
  let number () =
    (match peek () with Some '-' -> advance () | _ -> ());
    let digits () =
      let got = ref false in
      let rec go () =
        match peek () with
        | Some '0' .. '9' ->
          got := true;
          advance ();
          go ()
        | _ -> ()
      in
      go ();
      if not !got then fail "expected digit"
    in
    digits ();
    (match peek () with
    | Some '.' ->
      advance ();
      digits ()
    | _ -> ());
    match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ()
  in
  let rec value () =
    skip_ws ();
    (match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then advance ()
      else
        let rec members () =
          skip_ws ();
          string_ ();
          skip_ws ();
          expect ':';
          value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | Some '}' -> advance ()
          | _ -> fail "expected , or }"
        in
        members ()
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then advance ()
      else
        let rec elements () =
          value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements ()
          | Some ']' -> advance ()
          | _ -> fail "expected , or ]"
        in
        elements ()
    | Some '"' -> string_ ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail "expected value");
    skip_ws ()
  in
  value ();
  if !pos <> n then fail "trailing garbage"

let contains_sub s sub =
  let ls = String.length s and lu = String.length sub in
  let rec go i = i + lu <= ls && (String.sub s i lu = sub || go (i + 1)) in
  go 0

(* --- Histogram --- *)

let test_histogram_basics () =
  let h = Obs.Histogram.create () in
  Alcotest.(check int) "empty count" 0 (Obs.Histogram.count h);
  Alcotest.(check (float 0.)) "empty quantile" 0. (Obs.Histogram.p99 h);
  List.iter (Obs.Histogram.observe h) [ 1e-3; 2e-3; 3e-3; 4e-3 ];
  Alcotest.(check int) "count" 4 (Obs.Histogram.count h);
  Alcotest.(check (float 1e-12)) "min" 1e-3 (Obs.Histogram.min_seen h);
  Alcotest.(check (float 1e-12)) "max" 4e-3 (Obs.Histogram.max_seen h);
  Alcotest.(check (float 1e-12)) "mean" 2.5e-3 (Obs.Histogram.mean h);
  (* p50's rank-2 sample is 2e-3; the answer may overshoot by at most one
     bucket's growth factor. *)
  let p50 = Obs.Histogram.p50 h in
  Alcotest.(check bool) "p50 >= true" true (p50 >= 2e-3);
  Alcotest.(check bool) "p50 within growth" true (p50 <= 2e-3 *. 1.19);
  (* quantiles are monotone and capped by the recorded max *)
  let prev = ref 0. in
  for i = 0 to 10 do
    let q = Obs.Histogram.quantile h (float_of_int i /. 10.) in
    Alcotest.(check bool) "monotone" true (q >= !prev);
    prev := q
  done;
  Alcotest.(check bool) "q(1) <= max" true (!prev <= Obs.Histogram.max_seen h);
  Obs.Histogram.reset h;
  Alcotest.(check int) "reset" 0 (Obs.Histogram.count h)

let test_histogram_million () =
  (* Percentile accuracy at open-loop scale: 10^6 samples from a known
     uniform population, every quantile within one bucket growth factor
     of the exact order statistic. *)
  let h = Obs.Histogram.create () in
  let rng = Sim.Rng.create 99 in
  let n = 1_000_000 in
  for _ = 1 to n do
    (* uniform in [1ms, 1s): exact quantile q is 1e-3 + q * (1 - 1e-3) *)
    Obs.Histogram.observe h (1e-3 +. Sim.Rng.float rng 0.999)
  done;
  Alcotest.(check int) "count" n (Obs.Histogram.count h);
  List.iter
    (fun q ->
      let exact = 1e-3 +. (q *. 0.999) in
      let est = Obs.Histogram.quantile h q in
      Alcotest.(check bool)
        (Printf.sprintf "q%.3f: %.4f ~ %.4f" q est exact)
        true
        (est >= exact *. 0.9 && est <= exact *. 1.2))
    [ 0.5; 0.9; 0.99; 0.999 ]

let test_histogram_merge_commutes () =
  (* Merging per-caller histograms then querying equals having observed
     the union into one histogram — what makes fleet-wide percentiles
     from sharded recorders sound. *)
  let rng = Sim.Rng.create 7 in
  let union = Obs.Histogram.create () in
  let parts = Array.init 4 (fun _ -> Obs.Histogram.create ()) in
  for i = 0 to 9_999 do
    let v = 1e-4 *. float_of_int (1 + Sim.Rng.int rng 100_000) in
    Obs.Histogram.observe union v;
    Obs.Histogram.observe parts.(i mod 4) v
  done;
  let merged = Obs.Histogram.create () in
  (* merge in a scrambled order: the result must not care *)
  List.iter (fun i -> Obs.Histogram.merge merged parts.(i)) [ 2; 0; 3; 1 ];
  Alcotest.(check int) "count" (Obs.Histogram.count union)
    (Obs.Histogram.count merged);
  Alcotest.(check (float 1e-9)) "sum" (Obs.Histogram.sum union)
    (Obs.Histogram.sum merged);
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "quantile %.3f identical" q)
        (Obs.Histogram.quantile union q)
        (Obs.Histogram.quantile merged q))
    [ 0.; 0.1; 0.5; 0.9; 0.99; 0.999; 1. ]

let test_histogram_clamping () =
  (* A tiny 4-bucket table: outliers land in the last bucket, where the
     only sound upper bound is the recorded max. *)
  let h = Obs.Histogram.create ~min_value:1.0 ~growth:2.0 ~buckets:4 () in
  Obs.Histogram.observe h 0.5;
  (* below min_value: first bucket *)
  Obs.Histogram.observe h 1000.;
  (* beyond the top bound (16.): clamped *)
  Alcotest.(check int) "count includes clamped" 2 (Obs.Histogram.count h);
  Alcotest.(check (float 0.)) "q(1) is max_seen" 1000.
    (Obs.Histogram.quantile h 1.0);
  (* non-finite samples count but never distort max/sum *)
  Obs.Histogram.observe h Float.nan;
  Alcotest.(check int) "nan counted" 3 (Obs.Histogram.count h);
  Alcotest.(check (float 0.)) "nan ignored in sum" 1000.5 (Obs.Histogram.sum h);
  let buckets =
    Obs.Histogram.fold_buckets h ~init:0 ~f:(fun acc ~lo:_ ~hi:_ _ -> acc + 1)
  in
  Alcotest.(check int) "two non-empty buckets" 2 buckets

let qcheck_quantile_bound =
  let growth = 1.189207115002721 in
  let gen =
    QCheck.make
      ~print:(fun (l, q) ->
        Printf.sprintf "q=%g samples=[%s]" q
          (String.concat ";" (List.map string_of_float l)))
      QCheck.Gen.(
        pair
          (list_size (int_range 1 200) (float_range 1e-8 1e5))
          (float_range 0. 1.))
  in
  QCheck.Test.make ~name:"recorded quantile bounds true quantile" ~count:300
    gen
    (fun (samples, q) ->
      let h = Obs.Histogram.create () in
      List.iter (Obs.Histogram.observe h) samples;
      let sorted = List.sort compare samples in
      let n = List.length sorted in
      let rank =
        max 1 (int_of_float (Float.ceil (q *. float_of_int n)))
      in
      let true_q = List.nth sorted (rank - 1) in
      let rec_q = Obs.Histogram.quantile h q in
      rec_q >= true_q *. (1. -. 1e-9)
      && rec_q <= growth *. true_q *. (1. +. 1e-9))

(* --- Registry --- *)

let test_registry_labels () =
  let reg = Obs.Registry.create () in
  let a =
    Obs.Registry.counter reg ~subsystem:"s"
      ~labels:[ ("node", "0"); ("role", "x") ]
      "c"
  in
  let b =
    Obs.Registry.counter reg ~subsystem:"s"
      ~labels:[ ("role", "x"); ("node", "0") ]
      "c"
  in
  Obs.Metric.incr a;
  Obs.Metric.incr b;
  Alcotest.(check int) "label order merges" 2 (Obs.Metric.value a);
  Alcotest.(check int) "one instrument" 1 (Obs.Registry.cardinality reg);
  (* duplicate label keys: last binding wins *)
  let c =
    Obs.Registry.counter reg ~subsystem:"s"
      ~labels:[ ("node", "9"); ("node", "0"); ("role", "x") ]
      "c"
  in
  Obs.Metric.incr c;
  Alcotest.(check int) "dup key last wins" 3 (Obs.Metric.value a);
  (* same key, different kind: a programming error *)
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Obs.Registry: s/c already registered as a counter")
    (fun () ->
      ignore
        (Obs.Registry.gauge reg ~subsystem:"s"
           ~labels:[ ("node", "0"); ("role", "x") ]
           "c"));
  (* find sees through canonicalization *)
  (match
     Obs.Registry.find reg ~subsystem:"s"
       ~labels:[ ("role", "x"); ("node", "0") ]
       "c"
   with
  | Some (Obs.Registry.Counter c') ->
    Alcotest.(check int) "find" 3 (Obs.Metric.value c')
  | _ -> Alcotest.fail "find missed the counter");
  (* fold is sorted and complete *)
  ignore (Obs.Registry.gauge reg ~subsystem:"a" "g");
  let keys =
    Obs.Registry.fold reg ~init:[] ~f:(fun acc k _ ->
        (k.Obs.Registry.subsystem ^ "/" ^ k.Obs.Registry.name) :: acc)
    |> List.rev
  in
  Alcotest.(check (list string)) "fold sorted" [ "a/g"; "s/c" ] keys

(* --- Spans --- *)

let test_spans () =
  let clock = ref 0. in
  let col = Obs.Span.create ~clock:(fun () -> !clock) () in
  (* disabled: everything is a no-op *)
  let sp = Obs.Span.start col "ignored" in
  Obs.Span.finish sp;
  Obs.Span.complete col ~name:"ignored" ~ts:0. ~dur:1. ();
  Alcotest.(check int) "disabled collects nothing" 0 (Obs.Span.length col);
  Obs.Span.set_enabled col true;
  let sp = Obs.Span.start col ~cat:"t" ~pid:1 ~tid:2 "op" in
  Obs.Span.annotate sp "k" "v";
  clock := 3.5;
  Obs.Span.finish sp;
  Obs.Span.finish sp;
  (* idempotent *)
  Obs.Span.instant col ~pid:1 "marker";
  (match Obs.Span.events col with
  | [ e1; e2 ] ->
    Alcotest.(check string) "name" "op" e1.Obs.Span.ev_name;
    Alcotest.(check (float 1e-9)) "dur" 3.5 e1.Obs.Span.ev_dur;
    Alcotest.(check bool) "args kept" true
      (List.mem ("k", "v") e1.Obs.Span.ev_args);
    Alcotest.(check bool) "instant" true e2.Obs.Span.ev_instant
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs));
  (* the cap converts overflow into a drop count, not unbounded memory *)
  let tiny = Obs.Span.create ~limit:2 () in
  Obs.Span.set_enabled tiny true;
  for _ = 1 to 5 do
    Obs.Span.complete tiny ~name:"x" ~ts:0. ~dur:0. ()
  done;
  Alcotest.(check int) "capped" 2 (Obs.Span.length tiny);
  Alcotest.(check int) "dropped" 3 (Obs.Span.dropped tiny)

(* --- Exporters --- *)

let test_export_well_formed () =
  let obs = Obs.create () in
  let c = Obs.counter obs ~subsystem:"s" ~labels:[ ("node", "0") ] "c" in
  Obs.Metric.add c 42;
  let g = Obs.gauge obs ~subsystem:"s" "g\"quoted\\name" in
  Obs.Metric.set g 1.5;
  let h = Obs.histogram obs ~subsystem:"s" "h" in
  List.iter (Obs.Histogram.observe h) [ 1e-4; 2e-4; 0.5 ];
  check_json (Obs.Export.metrics_json (Obs.registry obs));
  String.split_on_char '\n' (Obs.Export.metrics_jsonl (Obs.registry obs))
  |> List.iter (fun line -> if line <> "" then check_json line);
  Obs.enable_tracing obs true;
  Obs.Span.complete (Obs.spans obs) ~cat:"c" ~pid:0 ~tid:1
    ~args:[ ("weird", "a\"b\\c\nd") ]
    ~name:"sp" ~ts:1e-3 ~dur:2e-3 ();
  Obs.Span.instant (Obs.spans obs) ~pid:1 "mark";
  check_json (Obs.Export.chrome_trace (Obs.spans obs));
  let table = Obs.Export.table (Obs.registry obs) in
  Alcotest.(check bool) "table mentions counter" true
    (contains_sub table "42")

(* --- Timeline: windowed req/s + latency with event marks --- *)

let test_timeline () =
  Alcotest.check_raises "bucket must be positive"
    (Invalid_argument "Obs.Timeline.create: bucket must be > 0") (fun () ->
      ignore (Obs.Timeline.create ~bucket:0. ()));
  let tl = Obs.Timeline.create ~bucket:0.5 () in
  Alcotest.(check int) "empty timeline has no rows" 0
    (List.length (Obs.Timeline.rows tl));
  (* three completions in bucket [1.0,1.5), one in [3.0,3.5): the gap
     must appear as zero rows, not vanish *)
  Obs.Timeline.record tl ~latency:0.010 1.1;
  Obs.Timeline.record tl ~latency:0.030 1.2;
  Obs.Timeline.record tl 1.4;
  Obs.Timeline.record tl ~latency:0.002 3.2;
  Obs.Timeline.mark tl 2.1 "failover";
  let rows = Obs.Timeline.rows tl in
  Alcotest.(check int) "contiguous rows across the gap" 5 (List.length rows);
  let r0 = List.nth rows 0 in
  Alcotest.(check (float 1e-9)) "first window start" 1.0 r0.Obs.Timeline.t0;
  Alcotest.(check int) "count" 3 r0.Obs.Timeline.n;
  Alcotest.(check (float 1e-9)) "rate = n / bucket" 6.0 r0.Obs.Timeline.rate;
  Alcotest.(check (float 1e-9)) "mean over recorded latencies only" 0.020
    r0.Obs.Timeline.lat_mean;
  Alcotest.(check (float 1e-9)) "max latency" 0.030 r0.Obs.Timeline.lat_max;
  let r2 = List.nth rows 2 in
  Alcotest.(check int) "gap row is zero" 0 r2.Obs.Timeline.n;
  Alcotest.(check (list string)) "mark lands in its window" [ "failover" ]
    (List.nth rows 2).Obs.Timeline.row_marks;
  let csv = Obs.Timeline.to_csv tl in
  Alcotest.(check bool) "csv header" true
    (Astring.String.is_prefix ~affix:"t,requests,req_per_s,lat_mean" csv);
  Alcotest.(check int) "csv has header + one line per row" 6
    (List.length
       (List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)));
  Alcotest.(check bool) "csv carries the mark" true
    (contains_sub csv "failover")

(* --- Full stack: a replicated lock server exports real numbers --- *)

let test_cluster_observability () =
  let cfg = R.Config.make ~workers:4 ~replicas:[ 0; 1; 2 ] () in
  let cluster = R.Cluster.create ~seed:11 cfg (Apps.Lock_server.factory ()) in
  let eng = R.Cluster.engine cluster in
  let obs = Engine.obs eng in
  Obs.enable_tracing obs true;
  R.Cluster.start cluster;
  let primary = R.Cluster.await_primary cluster in
  let gen = Workload.Mix.lock_server ~n_files:100 in
  let rng = Rng.create 5 in
  let completed = ref 0 and launched = ref 0 in
  let n = 400 in
  let rec submit_one () =
    if !launched < n then begin
      incr launched;
      R.Server.submit primary (gen rng) (fun _ ->
          incr completed;
          submit_one ())
    end
  in
  ignore
    (Engine.spawn eng ~node:(R.Server.node primary) (fun () ->
         for _ = 1 to 32 do
           submit_one ()
         done));
  ignore
    (Bench_lib.Harness.pump ~step:0.25 eng
       ~done_p:(fun () -> !completed >= n)
       ~virtual_deadline:(Engine.clock eng +. 60.));
  R.Cluster.run_for cluster 0.5;
  let counter_value ~subsystem ~node name =
    match
      Obs.Registry.find (Obs.registry obs) ~subsystem
        ~labels:[ ("node", string_of_int node) ]
        name
    with
    | Some (Obs.Registry.Counter c) -> Obs.Metric.value c
    | _ -> -1
  in
  let pnode = R.Server.node primary in
  let snode =
    List.find (fun i -> i <> pnode) [ 0; 1; 2 ]
  in
  Alcotest.(check bool) "primary recorded events" true
    (counter_value ~subsystem:"rexsync" ~node:pnode "events_recorded" > 0);
  Alcotest.(check bool) "secondary replayed events" true
    (counter_value ~subsystem:"rexsync" ~node:snode "events_replayed" > 0);
  Alcotest.(check bool) "requests counted" true
    (counter_value ~subsystem:"rex" ~node:pnode "requests_executed" >= n);
  (* the registry view and the legacy stats accessors agree *)
  let st = R.Server.stats primary in
  Alcotest.(check int) "stats view consistent"
    st.R.Server.requests_executed
    (counter_value ~subsystem:"rex" ~node:pnode "requests_executed");
  let rt = R.Server.runtime_stats primary in
  Alcotest.(check int) "runtime stats view consistent"
    rt.Rexsync.Runtime.events_recorded
    (counter_value ~subsystem:"rexsync" ~node:pnode "events_recorded");
  (* paxos committed at least one instance, with a sane latency histogram *)
  (match
     Obs.Registry.find (Obs.registry obs) ~subsystem:"paxos"
       ~labels:[ ("node", string_of_int pnode) ]
       "commit_latency"
   with
  | Some (Obs.Registry.Histogram h) ->
    Alcotest.(check bool) "commits observed" true (Obs.Histogram.count h > 0);
    Alcotest.(check bool) "p50 <= p99" true
      (Obs.Histogram.p50 h <= Obs.Histogram.p99 h)
  | _ -> Alcotest.fail "no commit_latency histogram");
  (* spans were collected and export as well-formed Chrome JSON *)
  Alcotest.(check bool) "spans collected" true
    (Obs.Span.length (Obs.spans obs) > 0);
  let trace = Obs.Export.chrome_trace (Obs.spans obs) in
  check_json trace;
  Alcotest.(check bool) "trace has events" true
    (Astring.String.is_infix ~affix:"\"ph\":\"X\"" trace)

let suite =
  [
    Alcotest.test_case "histogram basics" `Quick test_histogram_basics;
    Alcotest.test_case "histogram clamping" `Quick test_histogram_clamping;
    Alcotest.test_case "histogram percentiles at 10^6" `Quick
      test_histogram_million;
    Alcotest.test_case "histogram merge commutes" `Quick
      test_histogram_merge_commutes;
    QCheck_alcotest.to_alcotest qcheck_quantile_bound;
    Alcotest.test_case "registry labels" `Quick test_registry_labels;
    Alcotest.test_case "spans" `Quick test_spans;
    Alcotest.test_case "exporters well-formed" `Quick test_export_well_formed;
    Alcotest.test_case "timeline windows" `Quick test_timeline;
    Alcotest.test_case "cluster observability" `Quick
      test_cluster_observability;
  ]
