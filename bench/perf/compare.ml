(* perf.exe compare BASE.json... -- NEW.json...

   For each metric and each workload (one row per workload), the median
   and quartiles of both sides, and a label:
   - regressed: the new median is worse than the base median by more
     than the metric's bound;
   - unresolved: the base runs spread wider than the bound, so a change
     within it cannot be told from noise -- unless every new run reads
     better than every base run;
   - ok: otherwise.
   "gain" marks a change that wins at least 9 of 10 run pairs (ties
   count for neither) and moves the median by more than the base's
   interquartile range.  Bounds come from BENCHMARK.json, and for the
   end-to-end metrics that only some workloads produce, from
   bench/perf/metrics.json; metrics with no bound get no label. *)

type side = (string * (string * Metric.t) list) list
(* workload -> metric name -> metric, for one result file *)

let load path : side =
  let doc = try Json.of_file path with Sys_error e | Json.Error e -> failwith (path ^ ": " ^ e) in
  let metric j =
    let s k = Json.to_str (Option.value (Json.member k j) ~default:Json.Null) in
    {
      Metric.name = s "name";
      unit_ = s "unit";
      better = Metric.better_of_name (s "better");
      kind = Metric.kind_of_name (s "kind");
      value = Json.to_num (Option.value (Json.member "value" j) ~default:Json.Null);
    }
  in
  List.map
    (fun w ->
      let list k = Json.to_list (Option.value (Json.member k w) ~default:Json.Null) in
      ( Json.to_str (Option.get (Json.member "name" w)),
        List.map (fun j -> let m = metric j in (m.name, m)) (list "end_to_end" @ list "per_layer") ))
    (Json.to_list (Option.value (Json.member "workloads" doc) ~default:Json.Null))

let bounds paths =
  List.concat_map
    (fun path ->
      if not (Sys.file_exists path) then []
      else
        List.filter_map
          (fun m ->
            match (Json.member "name" m, Json.member "bound" m) with
            | Some (Json.Str n), Some (Json.Num b) -> Some (n, b)
            | _ -> None)
          (Json.to_list (Option.value (Json.member "end_to_end" (Json.of_file path)) ~default:Json.Null)))
    paths

let better (m : Metric.t) a b = match m.better with Metric.Lower -> a < b | Metric.Higher -> a > b

(* [d] relative to [base]; from a zero base any change is infinite. *)
let rel d base =
  if base <> 0. then d /. Float.abs base else if d = 0. then 0. else Float.copy_sign infinity d

let row ~bound (m : Metric.t) base next =
  let q1b, mb, q3b = Metric.quartiles base and q1n, mn, q3n = Metric.quartiles next in
  let iqr = q3b -. q1b in
  let worse = rel (match m.better with Metric.Lower -> mn -. mb | Metric.Higher -> mb -. mn) mb in
  let all_better = List.for_all (fun n -> List.for_all (fun b -> better m n b) base) next in
  let label =
    match bound with
    | None -> "-"
    | Some b ->
      if rel iqr mb > b then if all_better then "ok" else "unresolved"
      else if worse > b then "regressed"
      else "ok"
  in
  let rec pairs a b =
    match (a, b) with x :: a', y :: b' -> (x, y) :: pairs a' b' | _ -> []
  in
  let ps = pairs base next in
  let wins = List.length (List.filter (fun (b, n) -> better m n b) ps) in
  let gain =
    ps <> [] && 10 * wins >= 9 * List.length ps && better m mn mb && Float.abs (mn -. mb) > iqr
  in
  let side m q1 q3 = Printf.sprintf "%.4g [%.4g, %.4g]" m q1 q3 in
  ( Printf.sprintf "%-30s  %-30s  %+7.2f%%" (side mb q1b q3b) (side mn q1n q3n)
      (100. *. rel (mn -. mb) mb),
    label,
    gain )

let main args =
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> (List.rev acc, [])
  in
  let base_files, new_files = split [] args in
  if base_files = [] || new_files = [] then begin
    prerr_endline "usage: perf.exe compare BASE.json... -- NEW.json...";
    exit 2
  end;
  let base = List.map load base_files and next = List.map load new_files in
  let bounds = bounds [ "BENCHMARK.json"; "bench/perf/metrics.json" ] in
  let workloads = List.sort_uniq compare (List.concat_map (List.map fst) (base @ next)) in
  let values side w name =
    List.filter_map
      (fun (s : side) -> Option.bind (List.assoc_opt w s) (List.assoc_opt name))
      side
  in
  let names =
    List.concat_map (fun (s : side) -> List.concat_map (fun (_, ms) -> List.map fst ms) s) base
    |> List.fold_left (fun acc n -> if List.mem n acc then acc else n :: acc) []
    |> List.rev
  in
  let regressed = ref 0 in
  Printf.printf "%d base run(s), %d new run(s)\n" (List.length base) (List.length next);
  List.iter
    (fun name ->
      let rows =
        List.filter_map
          (fun w ->
            match (values base w name, values next w name) with
            | (m : Metric.t) :: _ as bs, (_ :: _ as ns) ->
              Some (w, m, List.map (fun (x : Metric.t) -> x.value) bs, List.map (fun (x : Metric.t) -> x.value) ns)
            | _ -> None)
          workloads
      in
      match rows with
      | [] -> ()
      | (_, m, _, _) :: _ ->
        let bound = List.assoc_opt name bounds in
        Printf.printf "\n%s  [%s, %s is better%s]\n" name m.unit_ (Metric.better_name m.better)
          (match bound with Some b -> Printf.sprintf ", bound %.0f%%" (100. *. b) | None -> "");
        Printf.printf "   %-9s %-30s  %-30s  %8s\n" "workload" "base median [q1, q3]"
          "new median [q1, q3]" "change";
        List.iter
          (fun (w, m, bs, ns) ->
            let cells, label, gain = row ~bound m bs ns in
            if label = "regressed" then incr regressed;
            Printf.printf "   %-9s %s  %s%s\n" w cells label (if gain then "  gain" else ""))
          rows)
    names;
  exit (if !regressed > 0 then 1 else 0)
