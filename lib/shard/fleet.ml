open Sim
module R = Rex_core

type t = {
  eng : Engine.t;
  net_ : Net.t;
  rpc_ : Rpc.t;
  mutable map_ : Shard_map.t;
  mutable clusters_ : R.Cluster.t array;
      (* every group ever created, indexed by group id; a merged-away
         group's cluster stays up as a redirect server *)
  client_node_ : int;
  mutable router_ : Router.t option;
  config_ : group:int -> replicas:int list -> R.Config.t;
  factory_ : map:Shard_map.t -> group:int -> R.App.factory;
  c_migrations : Obs.Metric.counter;
  c_migrated_keys : Obs.Metric.counter;
  c_reconfigs : Obs.Metric.counter;
  c_upgrades : Obs.Metric.counter;
  h_migration : Obs.Histogram.t;
  g_epoch : Obs.Metric.gauge;
}

let default_config ~group:_ ~replicas =
  R.Config.make ~workers:8 ~replicas ()

(* Replicas in each group, the initial ones and every one added later. *)
let replicas_per_group = 3

let create ?(seed = 7) ?(cores_per_node = 16) ?(net_latency = 50e-6)
    ?(vnodes = 64) ?(config = default_config) ~groups:n_groups make_factory =
  if n_groups <= 0 then invalid_arg "Fleet.create: groups";
  let n_replica_nodes = n_groups * replicas_per_group in
  let eng =
    Engine.create ~seed ~cores_per_node ~num_nodes:(n_replica_nodes + 1) ()
  in
  let net_ = Net.create ~base_latency:net_latency eng in
  let rpc_ = Rpc.create net_ in
  let client_node_ = n_replica_nodes in
  let map_ = Shard_map.create ~vnodes ~groups:(List.init n_groups Fun.id) () in
  let clusters_ =
    Array.init n_groups (fun g ->
        (* disjoint node-id ranges: group g owns
           [g*r .. g*r + r-1] of the shared engine *)
        let replicas =
          List.init replicas_per_group (fun i -> (g * replicas_per_group) + i)
        in
        let cfg = config ~group:g ~replicas in
        if cfg.R.Config.replicas <> replicas then
          invalid_arg "Fleet.create: config must keep the assigned replicas";
        R.Cluster.create_in ~client_node:client_node_ net_ rpc_ cfg
          (make_factory ~map:map_ ~group:g))
  in
  let obs = Engine.obs eng in
  {
    eng;
    net_;
    rpc_;
    map_;
    clusters_;
    client_node_;
    router_ = None;
    config_ = config;
    factory_ = make_factory;
    c_migrations = Obs.counter obs ~subsystem:"shard" "migrations";
    c_migrated_keys = Obs.counter obs ~subsystem:"shard" "migrated_keys";
    c_reconfigs = Obs.counter obs ~subsystem:"shard" "group_reconfigs";
    c_upgrades = Obs.counter obs ~subsystem:"shard" "rolling_upgrades";
    h_migration = Obs.histogram obs ~subsystem:"shard" "migration_duration";
    g_epoch = Obs.gauge obs ~subsystem:"shard" "fleet_epoch";
  }

let engine t = t.eng
let net t = t.net_
let rpc t = t.rpc_
let map t = t.map_
let n_groups t = Array.length t.clusters_
let active_groups t = Shard_map.groups t.map_
let clusters t = t.clusters_

let cluster t g =
  if g < 0 || g >= Array.length t.clusters_ then
    invalid_arg (Printf.sprintf "Fleet.cluster: no group %d" g);
  t.clusters_.(g)

let client_node t = t.client_node_
let start t = Array.iter R.Cluster.start t.clusters_
let run ?until t = Engine.run ?until t.eng
let run_for t d = Engine.run ~until:(Engine.clock t.eng +. d) t.eng

let primary t g = R.Cluster.primary (cluster t g)

let await_primaries ?(limit = 30.) t =
  let deadline = Engine.clock t.eng +. limit in
  let all_led () =
    Array.for_all (fun c -> R.Cluster.primary c <> None) t.clusters_
  in
  while not (all_led ()) do
    if Engine.clock t.eng >= deadline then
      failwith "Fleet.await_primaries: a group has no primary";
    run_for t 0.05
  done

let router t =
  match t.router_ with
  | Some r -> r
  | None ->
    let groups =
      Array.to_list t.clusters_
      |> List.mapi (fun g c -> (g, R.Cluster.members c))
    in
    let r =
      Router.create t.net_ t.rpc_ ~me:t.client_node_ ~map:t.map_ ~groups
    in
    t.router_ <- Some r;
    r

let crash_primary t g =
  match primary t g with
  | None -> None
  | Some s ->
    let node = R.Server.node s in
    R.Cluster.crash (cluster t g) node;
    Some node

let group_of_node t node =
  let found = ref None in
  Array.iteri
    (fun g c ->
      if !found = None && List.mem node (R.Cluster.replica_nodes c) then
        found := Some g)
    t.clusters_;
  match !found with
  | Some g -> g
  | None -> invalid_arg (Printf.sprintf "Fleet.group_of_node: node %d" node)

let restart t node = R.Cluster.restart (cluster t (group_of_node t node)) node

(* Replies sent by the group so far: the committed-throughput series the
   scale-out bench samples.  Registry-backed counters survive server
   rebuilds, so the sum is monotone across crash/restart. *)
let replies t g =
  Array.fold_left
    (fun acc s -> acc + (R.Server.stats s).R.Server.replies_sent)
    0
    (R.Cluster.servers (cluster t g))

let check_no_divergence t = Array.iter R.Cluster.check_no_divergence t.clusters_

let digests t g = R.Cluster.digests (cluster t g)

let converged t =
  let ok g =
    match digests t g with [] -> false | d :: rest -> List.for_all (( = ) d) rest
  in
  let rec go g = g >= n_groups t || (ok g && go (g + 1)) in
  go 0

(* --- Live topology: split / merge / reconfig / rolling upgrade --- *)

(* Drive one idempotent SHARD control op to success, retrying across
   leader failovers until the deadline. *)
let ctl t r ~deadline ~group request =
  let rec go () =
    if Engine.clock t.eng >= deadline then
      failwith
        (Printf.sprintf "Fleet.migrate: group %d did not answer %S" group
           (List.nth (String.split_on_char ' ' request) 1))
    else
      match Router.call_group r ~group request with
      | Some resp when String.length resp >= 2 && String.sub resp 0 2 = "OK" ->
        resp
      | Some _ | None ->
        Engine.sleep 0.01;
        go ()
  in
  go ()

(* Migrate the fleet to [target] under traffic: drain-then-cutover.
   PREPARE freezes and dumps the moving keys on every losing group,
   INSTALL imports and cuts the gaining groups over, COMMIT retires the
   old map on the rest.  Every step is an ordinary replicated write, so
   a group that fails over mid-migration resumes consistently; every
   step is idempotent, so the orchestrator retries freely. *)
let migrate ?(limit = 60.) t target =
  let old = t.map_ in
  if Shard_map.epoch target <= Shard_map.epoch old then
    invalid_arg "Fleet.migrate: target epoch must be newer";
  let r = router t in
  List.iter
    (fun g ->
      if g < Array.length t.clusters_ then
        Router.add_group r ~group:g ~nodes:(R.Cluster.members t.clusters_.(g)))
    (Shard_map.groups target);
  let spec = Shard_map.encode_spec target in
  let t0 = Engine.clock t.eng in
  let deadline = t0 +. limit in
  let finished = ref false and failed = ref None in
  let moved = ref 0 in
  ignore
    (Engine.spawn t.eng ~node:t.client_node_ ~name:"fleet.migrate" (fun () ->
         (try
            let dumps =
              List.map
                (fun g ->
                  let resp = ctl t r ~deadline ~group:g ("SHARD PREPARE " ^ spec) in
                  match Partition.parse_prepare_reply resp with
                  | Some entries -> entries
                  | None ->
                    failwith
                      (Printf.sprintf "Fleet.migrate: bad PREPARE reply %S" resp))
                (Shard_map.groups old)
            in
            let entries = List.concat dumps in
            moved := List.length entries;
            List.iter
              (fun g ->
                let mine =
                  List.filter (fun (k, _) -> Shard_map.group_of target k = g)
                    entries
                in
                ignore
                  (ctl t r ~deadline ~group:g
                     ("SHARD INSTALL " ^ spec ^ " "
                     ^ Partition.encode_entries mine)))
              (Shard_map.groups target);
            List.iter
              (fun g -> ignore (ctl t r ~deadline ~group:g ("SHARD COMMIT " ^ spec)))
              (Shard_map.groups old)
          with Failure msg -> failed := Some msg);
         finished := true));
  while (not !finished) && Engine.clock t.eng < deadline +. 1. do
    run_for t 0.02
  done;
  (match !failed with Some msg -> failwith msg | None -> ());
  if not !finished then failwith "Fleet.migrate: orchestrator stalled";
  t.map_ <- target;
  Router.set_map r target;
  Obs.Metric.incr t.c_migrations;
  Obs.Metric.add t.c_migrated_keys !moved;
  Obs.Histogram.observe t.h_migration (Engine.clock t.eng -. t0);
  Obs.Metric.set t.g_epoch (float_of_int (Shard_map.epoch target))

let split ?limit t =
  let g = Array.length t.clusters_ in
  let replicas =
    List.init replicas_per_group (fun _ -> Engine.add_node t.eng)
  in
  List.iter (fun node -> Rpc.attach_node t.rpc_ ~node) replicas;
  let cfg = t.config_ ~group:g ~replicas in
  if cfg.R.Config.replicas <> replicas then
    invalid_arg "Fleet.split: config must keep the assigned replicas";
  (* The newcomer starts under the *current* map, which it is not part
     of: it rejects everything until its INSTALL cuts it over, so no key
     is served by two groups. *)
  let c =
    R.Cluster.create_in ~client_node:t.client_node_ t.net_ t.rpc_ cfg
      (t.factory_ ~map:t.map_ ~group:g)
  in
  t.clusters_ <- Array.append t.clusters_ [| c |];
  R.Cluster.start c;
  ignore (R.Cluster.await_primary c);
  (match t.router_ with
  | Some r -> Router.add_group r ~group:g ~nodes:(R.Cluster.members c)
  | None -> ());
  migrate ?limit t (Shard_map.add_group t.map_ g);
  g

let merge ?limit t g =
  if not (Shard_map.contains t.map_ g) then
    invalid_arg (Printf.sprintf "Fleet.merge: group %d not in the map" g);
  (* The victim's cluster stays up after the cutover, answering
     wrong-shard redirects for stragglers still holding the old map. *)
  migrate ?limit t (Shard_map.remove_group t.map_ g)

let reconfig_group ?limit t g =
  let c = cluster t g in
  let primary_node =
    match primary t g with Some s -> Some (R.Server.node s) | None -> None
  in
  let victim =
    match
      List.find_opt (fun n -> Some n <> primary_node) (R.Cluster.members c)
    with
    | Some n -> n
    | None -> List.hd (R.Cluster.members c)
  in
  let fresh = R.Cluster.replace_replica ?limit c victim in
  (match t.router_ with
  | Some r -> Router.set_group_nodes r ~group:g ~nodes:(R.Cluster.members c)
  | None -> ());
  Obs.Metric.incr t.c_reconfigs;
  fresh

let rolling_upgrade ?pause t =
  List.iter
    (fun g ->
      if g < Array.length t.clusters_ then begin
        R.Cluster.rolling_restart ?pause t.clusters_.(g);
        Obs.Metric.incr t.c_upgrades
      end)
    (active_groups t)
