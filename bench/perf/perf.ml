(* perf.exe: the repository's benchmark.

     perf.exe run [--seed N] [--workload W] [--seconds S] [--out FILE]
                  [--trace-out FILE] [--smoke]
     perf.exe bench --workload W --seed N --seconds S --trace 0|1
     perf.exe compare BASE.json... -- NEW.json...

   [run] prints every metric with its unit, checks correctness and exits
   non-zero on any violation.  [bench] runs one workload the same way but
   without the max-rate search, and prints the metrics BENCHMARK.json
   names as one JSON line last.  [compare] judges result files of two
   commits against the bounds in BENCHMARK.json.  See README.md. *)

let usage () =
  prerr_endline
    "usage: perf.exe run [--seed N] [--workload W] [--seconds S] [--out FILE] \
     [--trace-out FILE] [--smoke]\n\
    \       perf.exe bench --workload W --seed N --seconds S --trace 0|1\n\
    \       perf.exe compare BASE.json... -- NEW.json...";
  exit 2

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perf: " ^ s); exit 2) fmt

(* --flag value pairs, in any order, among [allowed]. *)
let flags ~allowed args =
  let rec go acc = function
    | [] -> List.rev acc
    | "--smoke" :: rest when List.mem "--smoke" allowed -> go (("--smoke", "") :: acc) rest
    | f :: v :: rest when List.mem f allowed -> go ((f, v) :: acc) rest
    | a :: _ -> die "unexpected argument %S" a
  in
  go [] args

let flag fs name ~default conv =
  match List.assoc_opt name fs with
  | None -> default
  | Some v -> ( match conv v with Some x -> x | None -> die "bad value %S for %s" v name)

let command_output cmd =
  try
    let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
    let line = try Some (input_line ic) with End_of_file -> None in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, Some l -> l
    | _ -> "unknown"
  with Unix.Unix_error _ -> "unknown"

(* ---------------------------------------------------------------- *)

let print_result ?(brief = false) (r : Workload.result) =
  Printf.printf "\n== %s  (%d arrivals measured, %d failed, %.1f s wall)\n" r.name r.arrivals
    r.failed r.wall_s;
  let section title l =
    Printf.printf "-- %s\n" title;
    List.iter
      (fun (m : Metric.t) -> Printf.printf "   %-40s %14.6g %s\n" m.name m.value m.unit_)
      l
  in
  if not brief then begin
    section "end to end" r.e2e;
    section "per layer" r.layers
  end;
  List.iter (fun n -> Printf.printf "   NOTE %s\n" n) r.notes;
  List.iter (fun v -> Printf.printf "   VIOLATION %s\n" v) r.violations;
  flush stdout

let metric_json (m : Metric.t) =
  Json.Obj
    [
      ("name", Json.Str m.name);
      ("value", Json.Num m.value);
      ("unit", Json.Str m.unit_);
      ("better", Json.Str (Metric.better_name m.better));
      ("kind", Json.Str (Metric.kind_name m.kind));
    ]

let results_json ~seed ~seconds ~traced results =
  Json.Obj
    [
      ("schema", Json.Num 1.);
      ("seed", Json.Num (float seed));
      ("seconds", Json.Num seconds);
      ("traced", Json.Bool traced);
      ("git_sha", Json.Str (command_output "git rev-parse HEAD"));
      ("nproc", Json.Num (float (Domain.recommended_domain_count ())));
      ("ocaml", Json.Str Sys.ocaml_version);
      ( "workloads",
        Json.Arr
          (List.map
             (fun (r : Workload.result) ->
               Json.Obj
                 [
                   ("name", Json.Str r.name);
                   ("wall_s", Json.Num r.wall_s);
                   ("arrivals", Json.Num (float r.arrivals));
                   ("failed", Json.Num (float r.failed));
                   ("violations", Json.Arr (List.map (fun v -> Json.Str v) r.violations));
                   ("end_to_end", Json.Arr (List.map metric_json r.e2e));
                   ("per_layer", Json.Arr (List.map metric_json r.layers));
                 ])
             results) );
    ]

(* The traced run must repeat every virtual-time metric and every count
   of the untraced one; only wall-clock numbers may differ. *)
let same_virtual ~what (a : Workload.result) (b : Workload.result) =
  let virt l =
    List.filter_map
      (fun (m : Metric.t) -> if m.kind = Metric.Virtual then Some (m.name, m.value) else None)
      l
  in
  let diffs =
    List.filter_map
      (fun (n, v) ->
        match List.assoc_opt n (virt (b.e2e @ b.layers)) with
        | Some w when w = v || (Float.is_nan v && Float.is_nan w) -> None
        | Some w -> Some (Printf.sprintf "%s: %s %.17g vs %.17g" a.name n v w)
        | None -> None)
      (virt (a.e2e @ a.layers))
  in
  let counts =
    if a.arrivals <> b.arrivals || a.failed <> b.failed then
      [ Printf.sprintf "%s: counts %d/%d vs %d/%d" a.name a.arrivals a.failed b.arrivals b.failed ]
    else []
  in
  List.map (fun d -> what ^ " differs: " ^ d) (counts @ diffs)

(* Run the workloads untraced; with [traced], run them again traced and
   take the per-layer metrics from the traced run. *)
let measure ~cfg ?trace_out ~traced names =
  let plain = List.map (Workload.run cfg) names in
  if not traced then plain
  else begin
    let tf = Tracefile.create trace_out in
    let traced_cfg = { cfg with Workload.trace = true; search = false } in
    let res =
      List.map2
        (fun (u : Workload.result) name ->
          let t = Workload.run ~tracefile:tf traced_cfg name in
          let rate (r : Workload.result) =
            List.find (fun (m : Metric.t) -> m.name = "sim_req_per_wall_s") r.e2e
          in
          let overhead = 100. *. (((rate u).value /. (rate t).value) -. 1.) in
          {
            u with
            layers =
              t.layers
              @ [ Metric.v ~kind:Metric.Wall "trace_overhead_pct" "%" overhead ];
            violations = u.violations @ t.violations @ same_virtual ~what:"traced run" u t;
          })
        plain names
    in
    Tracefile.close tf;
    Printf.printf "\ntrace: %d spans kept, %d dropped%s\n%!" tf.spans tf.dropped
      (match trace_out with Some p -> " -> " ^ p | None -> "");
    res
  end

let cmd_run args =
  let fs =
    flags args
      ~allowed:[ "--seed"; "--workload"; "--seconds"; "--out"; "--trace-out"; "--smoke" ]
  in
  let smoke = List.mem_assoc "--smoke" fs in
  let seed = flag fs "--seed" ~default:1 int_of_string_opt in
  let seconds =
    flag fs "--seconds" ~default:(if smoke then 0.4 else 8.) float_of_string_opt
  in
  let names =
    match List.assoc_opt "--workload" fs with
    | None -> Workload.names
    | Some w when List.mem w Workload.names -> [ w ]
    | Some w -> die "unknown workload %S (one of %s)" w (String.concat ", " Workload.names)
  in
  let trace_out = List.assoc_opt "--trace-out" fs in
  let cfg = { Workload.seed; seconds; trace = false; search = true } in
  let w0 = Unix.gettimeofday () in
  let results = measure ~cfg ?trace_out ~traced:(smoke || trace_out <> None) names in
  let results =
    if not smoke then results
    else
      (* The same seed twice in one process must give the same numbers. *)
      List.map2
        (fun (r : Workload.result) again ->
          { r with violations = r.violations @ same_virtual ~what:"second run" r again })
        results
        (List.map (Workload.run { cfg with search = false }) names)
  in
  List.iter (print_result ~brief:smoke) results;
  Option.iter
    (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc
            (Json.to_string (results_json ~seed ~seconds ~traced:(trace_out <> None) results));
          output_char oc '\n'))
    (List.assoc_opt "--out" fs);
  let bad = List.concat_map (fun (r : Workload.result) -> r.violations) results in
  Printf.printf "\n%d workloads, %.1f s wall, %s\n%!" (List.length results)
    (Unix.gettimeofday () -. w0)
    (if bad = [] then "all checks passed" else Printf.sprintf "%d violations" (List.length bad));
  exit (if bad = [] then 0 else 1)

(* ---------------------------------------------------------------- *)

let benchmark_names path key =
  match Json.member key (Json.of_file path) with
  | Some (Json.Arr l) -> List.map (fun m -> Json.to_str (Option.get (Json.member "name" m))) l
  | _ -> die "%s has no %s list" path key

let cmd_bench args =
  let fs = flags args ~allowed:[ "--workload"; "--seed"; "--seconds"; "--trace" ] in
  let need name conv =
    match List.assoc_opt name fs with
    | None -> die "bench needs %s" name
    | Some v -> ( match conv v with Some x -> x | None -> die "bad value %S for %s" v name)
  in
  let workload = need "--workload" (fun w -> if List.mem w Workload.names then Some w else None) in
  let seed = need "--seed" int_of_string_opt in
  let seconds = need "--seconds" float_of_string_opt in
  let traced = need "--trace" (function "0" -> Some false | "1" -> Some true | _ -> None) in
  let wanted = benchmark_names "BENCHMARK.json" (if traced then "per_layer" else "end_to_end") in
  let cfg = { Workload.seed; seconds; trace = false; search = false } in
  (* The traced run's spans are counted, not written: only its per-layer
     metrics are wanted here. *)
  let r = List.hd (measure ~cfg ~traced [ workload ]) in
  print_result r;
  let all = if traced then r.layers else r.e2e in
  let metrics =
    List.map
      (fun n ->
        match List.find_opt (fun (m : Metric.t) -> m.name = n) all with
        | Some m -> (n, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ])
        | None -> die "workload %s does not produce metric %s" workload n)
      wanted
  in
  let ok = r.violations = [] in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool ok);
            ("attempted", Json.Num (float r.arrivals));
            ("failed", Json.Num (float r.failed));
            ("metrics", Json.Obj metrics);
          ]));
  exit (if ok then 0 else 1)

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: rest -> cmd_run rest
  | _ :: "bench" :: rest -> cmd_bench rest
  | _ :: "compare" :: rest -> Compare.main rest
  | _ -> usage ()
