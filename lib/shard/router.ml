open Sim
module R = Rex_core

(* Each group has its own session identity and seqs: the reply window a
   call must stay within is the group's session table, so a call stuck
   on one group never holds calls to another. *)
type group_state = {
  g_id : int;
  uid : int;
  seqs : R.Client.Seqs.t;
  guess : R.Client.Guess.t;
  c_routed : Obs.Metric.counter;
  c_redirects : Obs.Metric.counter;
  c_retries : Obs.Metric.counter;
  c_failures : Obs.Metric.counter;
  h_latency : Obs.Histogram.t;
  mutable routed_ok : int;
}

type t = {
  eng : Engine.t;
  rpc : Rpc.t;
  me : int;
  mutable map : Shard_map.t;
  groups : (int, group_state) Hashtbl.t;
  c_requests : Obs.Metric.counter;
  c_hops : Obs.Metric.counter;
  c_remaps : Obs.Metric.counter;
  c_migration_waits : Obs.Metric.counter;
  g_epoch : Obs.Metric.gauge;
  g_imbalance : Obs.Metric.gauge;
  mutable since_gauge : int;
}

type stats = {
  requests : int;
  hops : int;
  redirects : int;
  retries : int;
  failures : int;
}

let mk_group_state eng g_id nodes =
  if nodes = [] then invalid_arg "Router: empty group";
  let obs = Engine.obs eng in
  let labels = [ ("group", string_of_int g_id) ] in
  {
    g_id;
    uid = Engine.fresh_uid eng;
    seqs = R.Client.Seqs.create ();
    guess = R.Client.Guess.create nodes;
    c_routed = Obs.counter obs ~subsystem:"shard" ~labels "routed";
    c_redirects = Obs.counter obs ~subsystem:"shard" ~labels "redirects";
    c_retries = Obs.counter obs ~subsystem:"shard" ~labels "retries";
    c_failures = Obs.counter obs ~subsystem:"shard" ~labels "failures";
    h_latency = Obs.histogram obs ~subsystem:"shard" ~labels "request_latency";
    routed_ok = 0;
  }

let create net rpc ~me ~map ~groups =
  let eng = Net.engine net in
  let obs = Engine.obs eng in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (g_id, nodes) ->
      Hashtbl.replace tbl g_id (mk_group_state eng g_id nodes))
    groups;
  List.iter
    (fun g ->
      if not (Hashtbl.mem tbl g) then
        invalid_arg (Printf.sprintf "Router.create: map group %d has no replicas" g))
    (Shard_map.groups map);
  let t =
    {
      eng;
      rpc;
      me;
      map;
      groups = tbl;
      c_requests = Obs.counter obs ~subsystem:"shard" "router_requests";
      c_hops = Obs.counter obs ~subsystem:"shard" "router_hops";
      c_remaps = Obs.counter obs ~subsystem:"shard" "router_remaps";
      c_migration_waits = Obs.counter obs ~subsystem:"shard" "migration_waits";
      g_epoch = Obs.gauge obs ~subsystem:"shard" "router_epoch";
      g_imbalance = Obs.gauge obs ~subsystem:"shard" "imbalance_milli";
      since_gauge = 0;
    }
  in
  Obs.Metric.set t.g_epoch (float_of_int (Shard_map.epoch map));
  t

let map t = t.map

let add_group t ~group ~nodes =
  match Hashtbl.find_opt t.groups group with
  | Some g -> R.Client.Guess.set_nodes g.guess nodes
  | None -> Hashtbl.replace t.groups group (mk_group_state t.eng group nodes)

let set_group_nodes t ~group ~nodes =
  match Hashtbl.find_opt t.groups group with
  | None -> invalid_arg (Printf.sprintf "Router.set_group_nodes: no group %d" group)
  | Some g -> R.Client.Guess.set_nodes g.guess nodes

let set_map t m =
  List.iter
    (fun g ->
      if not (Hashtbl.mem t.groups g) then
        invalid_arg (Printf.sprintf "Router.set_map: group %d has no replicas" g))
    (Shard_map.groups m);
  t.map <- m;
  Obs.Metric.set t.g_epoch (float_of_int (Shard_map.epoch m))

(* A redirect carried a map spec: adopt it when it is strictly newer and
   we know replicas for every group in it (a split announces the new
   group's nodes to the router out of band, before traffic moves). *)
let maybe_refresh t = function
  | Some m
    when Shard_map.epoch m > Shard_map.epoch t.map
         && List.for_all (Hashtbl.mem t.groups) (Shard_map.groups m) ->
    Obs.Metric.incr t.c_remaps;
    t.map <- m;
    Obs.Metric.set t.g_epoch (float_of_int (Shard_map.epoch m));
    true
  | Some _ | None -> false

let group_of t key = Shard_map.group_of t.map key

let state t group =
  match Hashtbl.find_opt t.groups group with
  | Some g -> g
  | None -> invalid_arg (Printf.sprintf "Router: unknown group %d" group)

let leader_hint t ~group = R.Client.Guess.leader (state t group).guess

let routed_ok t ~group = (state t group).routed_ok

(* max/mean of successfully routed requests across groups; 1.0 = even. *)
let imbalance t =
  let n = Hashtbl.length t.groups in
  if n = 0 then 1.0
  else begin
    let total = ref 0 and worst = ref 0 in
    Hashtbl.iter
      (fun _ g ->
        total := !total + g.routed_ok;
        worst := max !worst g.routed_ok)
      t.groups;
    if !total = 0 then 1.0
    else float_of_int (!worst * n) /. float_of_int !total
  end

let note_success t g dt =
  g.routed_ok <- g.routed_ok + 1;
  Obs.Histogram.observe g.h_latency dt;
  t.since_gauge <- t.since_gauge + 1;
  if t.since_gauge >= 64 then begin
    t.since_gauge <- 0;
    Obs.Metric.set t.g_imbalance (1000. *. imbalance t)
  end

(* Give elections a moment instead of hammering the next guess: 2 ms
   after a redirect; after a timeout, Dropped or Busy, a pause that
   doubles from 2 ms up to 40 ms.  DESIGN.md's client-retry section has
   why this is not [Client]'s schedule. *)
let backoff =
  { R.Client.redirect = 2e-3; first = 2e-3; cap = 40e-3; after_timeout = true }

(* One group attempt loop for writes and reads.  [hops] counts the
   attempts of writes only (reads are not router requests). *)
let send ~hops ~port ?(retries = 8) ?(timeout = 0.1) t g payload =
  let count = function
    | R.Client.Hop -> if hops then Obs.Metric.incr t.c_hops
    | R.Client.Retry -> Obs.Metric.incr g.c_retries
    | R.Client.Redirect -> Obs.Metric.incr g.c_redirects
  in
  match
    R.Client.send t.rpc ~me:t.me g.guess backoff ~count ~retries ~timeout ~port
      payload
  with
  | R.Client.Reply resp -> Some resp
  | R.Client.Shed | R.Client.Gave_up ->
    Obs.Metric.incr g.c_failures;
    None

let call_group ?retries ?timeout t ~group request =
  let g = state t group in
  Obs.Metric.incr t.c_requests;
  Obs.Metric.incr g.c_routed;
  (* One session identity per logical request, reused verbatim on every
     retry: the group's replicas deduplicate on it (exactly-once for
     acknowledged requests). *)
  R.Client.Seqs.with_seq g.seqs (fun seq ->
      let envelope =
        R.Session.Envelope.encode
          { R.Session.Envelope.client = g.uid; seq; payload = request }
      in
      let t0 = Engine.clock t.eng in
      let reply =
        send ~hops:true ~port:R.Client.client_port ?retries ?timeout t g
          envelope
      in
      if Option.is_some reply then note_success t g (Engine.clock t.eng -. t0);
      reply)

(* Reads carry no envelope: any replica with a valid lease or a quorum
   round can answer, and a [Not_leader] just means this one chose not
   to. *)
let query_group ?retries ?timeout t ~group request =
  send ~hops:false ~port:R.Client.query_port ?retries ?timeout t (state t group)
    request

(* Keyed requests re-resolve the group on every attempt and obey shard
   redirects: a wrong-shard reply refreshes the map from the attached
   spec, a migrating reply backs off until the cutover lands.  Each
   re-issue is a fresh group call, hence a fresh session seq for a
   write — safe because the shard layer rejected the request before it
   touched app state, so the retry cannot double-execute. *)
let shard_retries = 10

let route group_call t ~key request =
  let rec go tries pause =
    if tries = 0 then None
    else
      match group_call t ~group:(group_of t key) request with
      | None -> None
      | Some resp -> (
        let retry () =
          Engine.sleep pause;
          go (tries - 1) (Float.min (2. *. pause) backoff.cap)
        in
        match Partition.classify resp with
        | `App -> Some resp
        | `Wrong_shard spec ->
          ignore (maybe_refresh t spec);
          retry ()
        | `Migrating _ ->
          (* The spec names the *target* map: do not adopt it early — the
             destination group only serves these keys once INSTALL lands.
             Just wait for the cutover and re-route. *)
          Obs.Metric.incr t.c_migration_waits;
          retry ())
  in
  go shard_retries backoff.first

let call ?retries ?timeout t ~key request =
  route (call_group ?retries ?timeout) t ~key request

let query ?retries ?timeout t ~key request =
  route (query_group ?retries ?timeout) t ~key request

(* --- Scatter-gather multi-key fan-out --- *)

type outcome = Reply of string | Failed of { group : int }

type multi = {
  outcomes : (string * outcome) array; (* input order: (key, outcome) *)
  failed_groups : int list; (* sorted, distinct *)
}

let multi_ok m =
  Array.for_all (function _, Reply _ -> true | _ -> false) m.outcomes

let multi_call ?retries ?timeout t reqs =
  match reqs with
  | [] -> { outcomes = [||]; failed_groups = [] }
  | _ ->
    let reqs = Array.of_list reqs in
    (* Partition the batch by target group, preserving input order
       within each group (per-group requests stay FIFO on one fiber). *)
    let by_group = Hashtbl.create 8 in
    Array.iteri
      (fun i (key, req) ->
        let g = group_of t key in
        let prev = Option.value (Hashtbl.find_opt by_group g) ~default:[] in
        Hashtbl.replace by_group g ((i, req) :: prev))
      reqs;
    let outcomes =
      Array.map (fun (key, _) -> (key, Failed { group = group_of t key })) reqs
    in
    let remaining = ref (Hashtbl.length by_group) in
    let parent = ref None in
    Hashtbl.iter
      (fun _g items ->
        let items = List.rev items in
        ignore
          (Engine.spawn t.eng ~node:t.me ~name:"shard.fanout" (fun () ->
               List.iter
                 (fun (i, req) ->
                   (* Keyed call: follows shard redirects if the map
                      moved after the batch was partitioned. *)
                   match call ?retries ?timeout t ~key:(fst reqs.(i)) req with
                   | Some resp ->
                     outcomes.(i) <- (fst outcomes.(i), Reply resp)
                   | None -> ())
                 items;
               decr remaining;
               if !remaining = 0 then
                 match !parent with Some w -> Engine.wake w | None -> ())))
      by_group;
    while !remaining > 0 do
      Engine.park (fun w -> parent := Some w)
    done;
    let failed_groups =
      Array.to_list outcomes
      |> List.filter_map (function
           | _, Failed { group } -> Some group
           | _, Reply _ -> None)
      |> List.sort_uniq compare
    in
    { outcomes; failed_groups }

let stats t =
  let redirects = ref 0 and retries = ref 0 and failures = ref 0 in
  Hashtbl.iter
    (fun _ g ->
      redirects := !redirects + Obs.Metric.value g.c_redirects;
      retries := !retries + Obs.Metric.value g.c_retries;
      failures := !failures + Obs.Metric.value g.c_failures)
    t.groups;
  {
    requests = Obs.Metric.value t.c_requests;
    hops = Obs.Metric.value t.c_hops;
    redirects = !redirects;
    retries = !retries;
    failures = !failures;
  }
