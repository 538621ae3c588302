let default_resource_name r = Printf.sprintf "r%d" r

let node_id (id : Event.Id.t) = Printf.sprintf "e_%d_%d" id.slot id.clock

let node_label resource_name (e : Event.t) =
  let res =
    match e.kind with
    | Event.Req_start | Event.Req_end | Event.Timer_fire | Event.Nondet
    | Event.Ckpt_mark ->
      ""
    | _ -> " " ^ resource_name e.resource
  in
  Printf.sprintf "%d: %s%s" e.id.clock (Event.kind_to_string e.kind) res

let emit_dot ~resource_name ~highlight events edges =
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "digraph trace {\n  rankdir=TB;\n  node [shape=box, fontsize=9];\n";
  let slots =
    List.sort_uniq compare (List.map (fun (e : Event.t) -> e.id.slot) events)
  in
  List.iter
    (fun slot ->
      pr "  subgraph cluster_slot%d {\n    label=\"slot %d\";\n" slot slot;
      let mine =
        List.filter (fun (e : Event.t) -> e.id.slot = slot) events
        |> List.sort (fun (a : Event.t) (b : Event.t) ->
               compare a.id.clock b.id.clock)
      in
      List.iter
        (fun (e : Event.t) ->
          let hl =
            if List.exists (Event.Id.equal e.id) highlight then
              ", style=filled, fillcolor=red"
            else ""
          in
          pr "    %s [label=\"%s\"%s];\n" (node_id e.id)
            (node_label resource_name e)
            hl)
        mine;
      (* program order, drawn invisibly heavy to keep columns *)
      let rec chain = function
        | (a : Event.t) :: (b : Event.t) :: rest ->
          pr "    %s -> %s [style=dotted, arrowhead=none];\n" (node_id a.id)
            (node_id b.id);
          chain (b :: rest)
        | _ -> ()
      in
      chain mine;
      pr "  }\n")
    slots;
  List.iter
    (fun (src, dst) ->
      pr "  %s -> %s [color=blue, constraint=false];\n" (node_id src)
        (node_id dst))
    edges;
  pr "}\n";
  Buffer.contents buf

let all_events t =
  let acc = ref [] in
  Trace.iter_events t (fun e -> acc := e :: !acc);
  List.rev !acc

let all_edges t =
  let acc = ref [] in
  Trace.iter_edges t (fun ~src ~dst -> acc := (src, dst) :: !acc);
  List.rev !acc

let to_dot ?(resource_name = default_resource_name) ?(highlight = []) t =
  emit_dot ~resource_name ~highlight (all_events t) (all_edges t)

let window t ~center ~radius =
  let keep (id : Event.Id.t) =
    abs (id.clock - Trace.Cut.watermark center id.slot) <= radius
  in
  let events = List.filter (fun (e : Event.t) -> keep e.id) (all_events t) in
  let edges =
    List.filter (fun (src, dst) -> keep src || keep dst) (all_edges t)
    |> List.filter (fun (src, dst) ->
           (* both endpoints must be drawable *)
           Trace.find t src <> None && Trace.find t dst <> None && keep src
           && keep dst)
  in
  (events, edges)

let window_to_dot ?(resource_name = default_resource_name) ?(highlight = []) t
    ~center ~radius =
  let events, edges = window t ~center ~radius in
  emit_dot ~resource_name ~highlight events edges

(* [dump] prints at most this many of each slot's newest events. *)
let limit_per_slot = 50

let dump t =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "%s\n" (Fmt.str "%a" Trace.pp t);
  for slot = 0 to Trace.num_slots t - 1 do
    let hi = Trace.slot_end t slot in
    let lo = max (Trace.Cut.watermark (Trace.base_cut t) slot + 1)
        (hi - limit_per_slot + 1) in
    pr "slot %d (%d..%d):\n" slot lo hi;
    for c = lo to hi do
      match Trace.find t { slot; clock = c } with
      | None -> ()
      | Some e ->
        let incoming = Trace.incoming t e.id in
        pr "  %s%s\n"
          (Fmt.str "%a" Event.pp e)
          (if incoming = [] then ""
           else
             Fmt.str " <= [%a]"
               Fmt.(list ~sep:(any ";") Event.Id.pp)
               incoming)
    done
  done;
  Buffer.contents buf
