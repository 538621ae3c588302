open Sim
module R = Rex_core

type stack = Rex | Smr | Eve | Sharded | Cbase | Early
type app = Kv | Counter

let stacks =
  [
    ("rex", Rex);
    ("smr", Smr);
    ("eve", Eve);
    ("shard", Sharded);
    ("cbase", Cbase);
    ("early", Early);
  ]
let stack_of_string s = List.assoc_opt s stacks
let stack_name s = fst (List.find (fun (_, x) -> x = s) stacks)
let apps = [ ("kv", Kv); ("counter", Counter) ]
let app_of_string s = List.assoc_opt s apps
let app_name a = fst (List.find (fun (_, x) -> x = a) apps)

type config = {
  stack : stack;
  app : app;
  nemesis : Nemesis.profile;
  seed : int;
  clients : int;
  ops_per_client : int;
  dedup_off : bool;
  reads_via_query : bool;
  lease_unsafe : bool;
  read_ratio : float option;
  checkpoint_interval : float option;
  pipeline_depth : int;
  horizon : float;
  max_steps : int;
}

let default_config ?(clients = 3) ?(ops_per_client = 8) ?(dedup_off = false)
    ?(reads_via_query = false) ?(lease_unsafe = false) ?read_ratio
    ?(checkpoint_interval = None)
    ?(pipeline_depth = R.Config.default_pipeline_depth) ?(horizon = 3.0)
    ?(max_steps = 5_000_000)
    ~stack ~app ~nemesis ~seed () =
  {
    stack;
    app;
    nemesis;
    seed;
    clients;
    ops_per_client;
    dedup_off;
    reads_via_query;
    lease_unsafe;
    read_ratio;
    checkpoint_interval;
    pipeline_depth;
    horizon;
    max_steps;
  }

type outcome = {
  config : config;
  schedule : Nemesis.schedule;
  hstats : History.stats;
  result : Lin.result;
  converged : bool;
  live_probe_ok : bool;
  elapsed_virtual : float;
  history_lines : string list;
}

let passed o =
  (match o.result.Lin.verdict with
  | Lin.Linearizable -> true
  | Lin.Non_linearizable _ | Lin.Limit -> false)
  && o.converged && o.live_probe_ok

(* {1 Applications} *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* INC/GET counter guarded by a Rex lock (Rex executes concurrently; the
   recorded lock order keeps replay deterministic).  Unlike the dedup
   smoke's counter, GET does not increment, and INC carries an ignored
   idempotency tag that makes each logical increment's payload unique. *)
let counter_factory () : R.App.factory =
 fun api ->
  let n = ref 0 in
  let lock = R.Api.lock api "ctr" in
  {
    R.App.name = "ctr";
    execute =
      (fun ~request ->
        Rexsync.Lock.with_lock lock (fun () ->
            if starts_with ~prefix:"INC" request then incr n;
            string_of_int !n));
    query = (fun ~request:_ -> string_of_int !n);
    write_checkpoint = (fun sink -> Codec.write_uvarint sink !n);
    read_checkpoint = (fun src -> n := Codec.read_uvarint src);
    digest = (fun () -> string_of_int !n);
  }

(* The stripes are Rex locks, so on the Rex stack the recorded lock order
   makes replay, and so every response value, deterministic; the other
   stacks run the same factory through their native serial paths. *)
let keyed_counter_factory () : R.App.factory =
 fun api ->
  let stripes = 32 in
  let counts : (string, int) Hashtbl.t = Hashtbl.create 1024 in
  let locks =
    Array.init stripes (fun i -> R.Api.lock api (Printf.sprintf "s%d" i))
  in
  let stripe k = Hashtbl.hash k mod stripes in
  let get k = Option.value (Hashtbl.find_opt counts k) ~default:0 in
  let bindings () =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [] |> List.sort compare
  in
  {
    R.App.name = "keyed-counter";
    execute =
      (fun ~request ->
        match Spec.words request with
        | "INC" :: k :: _ ->
          Rexsync.Lock.with_lock locks.(stripe k) (fun () ->
              let v = get k + 1 in
              Hashtbl.replace counts k v;
              string_of_int v)
        | [ "GET"; k ] ->
          Rexsync.Lock.with_lock locks.(stripe k) (fun () ->
              string_of_int (get k))
        | [ "SET"; k; v ]
          when Option.value ~default:(-1) (int_of_string_opt v) >= 0 ->
          Rexsync.Lock.with_lock locks.(stripe k) (fun () ->
              Hashtbl.replace counts k (int_of_string v);
              "OK")
        | _ -> "ERR:bad-request");
    query =
      (fun ~request ->
        match Spec.words request with
        | [ "GET"; k ] -> string_of_int (get k)
        | _ -> "ERR:bad-query");
    write_checkpoint =
      (fun sink ->
        Codec.write_list sink
          (fun b (k, v) ->
            Codec.write_string b k;
            Codec.write_uvarint b v)
          (bindings ()));
    read_checkpoint =
      (fun src ->
        Hashtbl.reset counts;
        List.iter
          (fun (k, v) -> Hashtbl.replace counts k v)
          (Codec.read_list src (fun s ->
               let k = Codec.read_string s in
               (k, Codec.read_uvarint s))));
    digest = (fun () -> string_of_int (Hashtbl.hash (bindings ())));
  }

(* Timer-less kv store for Eve (which rejects background timers), wire-
   compatible with the register spec. *)
let plain_kv_factory () : R.App.factory =
 fun api ->
  let tbl : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let lock = R.Api.lock api "kv" in
  let execute ~request =
    Rexsync.Lock.with_lock lock (fun () ->
        match Spec.words request with
        | [ "SET"; k; v ] ->
          Hashtbl.replace tbl k v;
          "OK"
        | [ "DEL"; k ] ->
          Hashtbl.remove tbl k;
          "OK"
        | [ "GET"; k ] ->
          Option.value (Hashtbl.find_opt tbl k) ~default:"NOTFOUND"
        | _ -> "ERR:bad-request")
  in
  let bindings () =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare
  in
  {
    R.App.name = "plainkv";
    execute;
    query =
      (fun ~request ->
        match Spec.words request with
        | [ "GET"; k ] ->
          Option.value (Hashtbl.find_opt tbl k) ~default:"NOTFOUND"
        | _ -> "ERR:bad-query");
    write_checkpoint =
      (fun sink ->
        Codec.write_list sink
          (fun b (k, v) ->
            Codec.write_string b k;
            Codec.write_string b v)
          (bindings ()));
    read_checkpoint =
      (fun src ->
        Hashtbl.reset tbl;
        Codec.read_list src (fun s ->
            let k = Codec.read_string s in
            let v = Codec.read_string s in
            (k, v))
        |> List.iter (fun (k, v) -> Hashtbl.replace tbl k v));
    digest = (fun () -> string_of_int (Hashtbl.hash (bindings ())));
  }

let key_of_request req =
  match Spec.words req with
  | ("SET" | "GET" | "DEL" | "INC") :: k :: _ -> Some k
  | _ -> None

(* The sharded stack runs the counter app as one counter per key: a
   single counter would live in one group. *)
let spec_of cfg =
  match (cfg.app, cfg.stack) with
  | Kv, _ -> Spec.register
  | Counter, Sharded -> Spec.keyed_counter
  | Counter, (Rex | Smr | Eve | Cbase | Early) -> Spec.counter

let n_keys = 6

let gen_request cfg rng ~cidx ~opidx =
  match cfg.app with
  | Counter when cfg.stack = Sharded ->
    let key = Printf.sprintf "k%d" (Rng.int rng n_keys) in
    if opidx mod 4 = 3 then Printf.sprintf "GET %s" key
    else Printf.sprintf "INC %s %d.%d" key cidx opidx
  | Counter ->
    if opidx mod 4 = 3 then "GET"
    else Printf.sprintf "INC %d.%d" cidx opidx
  | Kv -> (
    let key = Printf.sprintf "k%d" (Rng.int rng n_keys) in
    match cfg.read_ratio with
    | Some r ->
      if Rng.float rng 1.0 < r then Printf.sprintf "GET %s" key
      else Printf.sprintf "SET %s v%d.%d" key cidx opidx
    | None -> (
      match Rng.int rng 10 with
      | 0 | 1 | 2 | 3 | 4 -> Printf.sprintf "SET %s v%d.%d" key cidx opidx
      | 5 -> Printf.sprintf "DEL %s" key
      | _ -> Printf.sprintf "GET %s" key))

let probe_requests cfg =
  match cfg.app with
  | Counter when cfg.stack <> Sharded -> [ "GET" ]
  | Counter | Kv -> List.init n_keys (fun i -> Printf.sprintf "GET k%d" i)

(* {1 Deployments} *)

type deploy = {
  eng : Engine.t;
  target : Nemesis.target;
  (* One request identity per [call] of the underlying client (so
     [retries:1] in a loop defeats dedup — the canary). *)
  call : int -> retries:int -> string -> string option;
  query : int -> string -> string option;
  (* Convergence means each group's live replicas agree internally
     (groups hold disjoint key ranges, so cross-group digests never
     match by design). *)
  digests : unit -> string list list;
  diverged : unit -> bool;
}

let allow_restart cfg =
  match cfg.stack with
  | Rex | Sharded -> true
  | Smr | Eve | Cbase | Early -> false

(* The sched stacks run kyoto like the recording stacks: their timer
   barriers replay the autosync tick at a fixed log position, so the
   full timer-bearing app is in scope (Eve still needs the timer-less
   kv). *)
let factory_for cfg =
  match (cfg.stack, cfg.app) with
  | (Rex | Smr | Sharded | Cbase | Early), Kv -> Apps.Kyoto.factory ()
  | Eve, Kv -> plain_kv_factory ()
  | Sharded, Counter -> keyed_counter_factory ()
  | (Rex | Smr | Eve | Cbase | Early), Counter -> counter_factory ()

(* Conflict oracles come from the shared module ({!Sched.Conflict}):
   the same key extraction drives Eve's mixer, both sched stacks and
   this harness. *)
let conflict_keys_for cfg =
  match cfg.app with
  | Counter -> Sched.Conflict.counter
  | Kv -> Sched.Conflict.kv

(* {1 The log-order stacks}

   The one place that maps a stack name to its constructor, so the
   checker and `bench load` deploy the same servers. *)

type log_stack = Log_stack : 'x R.Cluster.log_mk -> log_stack

let log_stack stack cfg ~conflict factory =
  match stack with
  | Smr ->
    Log_stack
      (fun net rpc ~node ~paxos_store ->
        Smr.create net rpc cfg ~node ~paxos_store factory)
  | Cbase | Early ->
    let mode = if stack = Cbase then Sched.Exec.Cbase else Sched.Exec.Early in
    Log_stack
      (fun net rpc ~node ~paxos_store ->
        Sched.Server.create net rpc cfg ~node ~paxos_store ~mode ~conflict
          factory)
  | Eve ->
    let ecfg =
      {
        (Eve.default_config ~replicas:cfg.R.Config.replicas ()) with
        Eve.base = cfg;
      }
    in
    Log_stack
      (fun net rpc ~node ~paxos_store ->
        Eve.create net rpc ecfg ~node ~paxos_store ~conflict_keys:conflict
          factory)
  | Rex | Sharded ->
    invalid_arg ("Runner.log_stack: not a log-order stack: " ^ stack_name stack)

(* Wire a started group of any unsharded stack (three replicas on nodes
   0-2, clients on node 3) into the checker. *)
let deploy_group history_of cfg c =
  let module C = R.Cluster in
  ignore (C.await_primary c);
  let eng = C.engine c in
  let history = history_of eng in
  let wire s = History.wire history [ C.frontend c s ] in
  Array.iter wire (C.servers c);
  (* Every later server — restarts, reconfiguration newcomers — gets its
     history tap from this hook (so the restart action must not wire
     again). *)
  C.set_on_new_server c (Some wire);
  let primary_node () = Option.map (C.node c) (C.primary c) in
  let target =
    {
      Nemesis.net = C.net c;
      nodes = C.replica_nodes c;
      others = [ C.client_node c ];
      crash = C.crash c;
      restart = (if allow_restart cfg then Some (C.restart c) else None);
      leader = primary_node;
      down = [];
      topo = Nemesis.no_topo;
    }
  in
  target.Nemesis.topo <-
    {
      Nemesis.no_topo with
      Nemesis.t_reconfig =
        Some
          (fun () ->
            (* Replace a live non-primary member through the log. *)
            let p = primary_node () in
            match
              List.filter
                (fun n -> Some n <> p && not (List.mem n target.Nemesis.down))
                (C.members c)
            with
            | [] -> ()
            | victim :: _ ->
              ignore (C.replace_replica c victim);
              target.Nemesis.nodes <- C.members c);
      t_upgrade = Some (fun () -> C.rolling_restart c);
    };
  let clients = Array.init cfg.clients (fun _ -> C.client c) in
  {
    eng;
    target;
    call =
      (fun cidx ~retries req -> R.Client.call ~retries clients.(cidx) req);
    query = (fun cidx req -> R.Client.query clients.(cidx) req);
    digests = (fun () -> [ C.digests c ]);
    diverged =
      (fun () ->
        match C.check_no_divergence c with
        | () -> false
        | exception Failure _ -> true);
  }

let deploy_sharded history_of cfg =
  let fleet =
    Shard.Fleet.create ~seed:cfg.seed ~groups:2
      ~config:(fun ~group:_ ~replicas ->
        R.Config.make ~workers:4 ~replicas
          ?checkpoint_interval:
            (Option.map Option.some cfg.checkpoint_interval)
          ~pipeline_depth:cfg.pipeline_depth ~lease_unsafe:cfg.lease_unsafe ())
      (fun ~map ~group ->
        Shard.Partition.factory ~map ~group (factory_for cfg))
  in
  Shard.Fleet.start fleet;
  Shard.Fleet.await_primaries fleet;
  let eng = Shard.Fleet.engine fleet in
  let history = history_of eng in
  let clusters = Array.to_list (Shard.Fleet.clusters fleet) in
  let cluster_of n =
    List.find (fun c -> List.mem n (R.Cluster.replica_nodes c)) clusters
  in
  let wire_node n =
    History.wire history
      [ R.Server.frontend (R.Cluster.server (cluster_of n) n) ]
  in
  let nodes = List.concat_map R.Cluster.replica_nodes clusters in
  List.iter wire_node nodes;
  (* Restarts and reconfiguration newcomers are wired through this hook
     (so the restart action below must not wire again). *)
  let wire_server s = History.wire history [ R.Server.frontend s ] in
  List.iter
    (fun c -> R.Cluster.set_on_new_server c (Some wire_server))
    clusters;
  let kills = ref 0 in
  let reconfigs = ref 0 in
  let router = Shard.Fleet.router fleet in
  let target =
    {
      Nemesis.net = Shard.Fleet.net fleet;
      nodes;
      others = [ Shard.Fleet.client_node fleet ];
      crash = (fun n -> R.Cluster.crash (cluster_of n) n);
      restart = Some (fun n -> Shard.Fleet.restart fleet n);
      leader =
        (fun () ->
          let g = !kills mod Shard.Fleet.n_groups fleet in
          incr kills;
          Option.map R.Server.node (Shard.Fleet.primary fleet g));
      down = [];
      topo = Nemesis.no_topo;
    }
  in
  target.Nemesis.topo <-
    {
      Nemesis.t_reconfig =
        Some
          (fun () ->
            let groups = Shard.Fleet.active_groups fleet in
            let g = List.nth groups (!reconfigs mod List.length groups) in
            incr reconfigs;
            ignore (Shard.Fleet.reconfig_group fleet g);
            target.Nemesis.nodes <-
              List.concat_map R.Cluster.replica_nodes
                (Array.to_list (Shard.Fleet.clusters fleet)));
      t_split =
        Some
          (fun () ->
            let g = Shard.Fleet.split fleet in
            let c = Shard.Fleet.cluster fleet g in
            R.Cluster.set_on_new_server c (Some wire_server);
            Array.iter wire_server (R.Cluster.servers c);
            target.Nemesis.nodes <-
              target.Nemesis.nodes @ R.Cluster.members c;
            g);
      t_merge = Some (fun g -> Shard.Fleet.merge fleet g);
      t_upgrade = Some (fun () -> Shard.Fleet.rolling_upgrade fleet);
    };
  {
    eng;
    target;
    call =
      (fun _cidx ~retries req ->
        match key_of_request req with
        | Some key -> Shard.Router.call ~retries router ~key req
        | None -> None);
    query =
      (fun _cidx req ->
        match key_of_request req with
        | Some key -> Shard.Router.query router ~key req
        | None -> None);
    digests =
      (fun () ->
        List.init (Shard.Fleet.n_groups fleet) (Shard.Fleet.digests fleet));
    diverged =
      (fun () ->
        match Shard.Fleet.check_no_divergence fleet with
        | () -> not (Shard.Fleet.converged fleet)
        | exception Failure _ -> true);
  }

let deploy history_of cfg =
  let replicas = [ 0; 1; 2 ] in
  match cfg.stack with
  | Rex ->
    let ccfg =
      R.Config.make ~workers:4 ~checkpoint_interval:cfg.checkpoint_interval
        ~pipeline_depth:cfg.pipeline_depth ~lease_unsafe:cfg.lease_unsafe
        ~replicas ()
    in
    let c = R.Cluster.create ~seed:cfg.seed ccfg (factory_for cfg) in
    R.Cluster.start c;
    deploy_group history_of cfg c
  | Smr | Eve | Cbase | Early ->
    let rcfg =
      R.Config.make ~workers:4 ~replicas ~pipeline_depth:cfg.pipeline_depth
        ~lease_unsafe:cfg.lease_unsafe ()
    in
    let (Log_stack mk) =
      log_stack cfg.stack rcfg ~conflict:(conflict_keys_for cfg)
        (factory_for cfg)
    in
    let c = R.Cluster.create_log ~seed:cfg.seed ~replicas mk in
    R.Cluster.start c;
    (* Their workloads start at 1.0 s of virtual time, as recorded
       histories of these stacks always have. *)
    R.Cluster.run ~until:1.0 c;
    deploy_group history_of cfg c
  | Sharded -> deploy_sharded history_of cfg

(* {1 The run} *)

let normal_retries = 12
let dedup_off_attempts = 30

let do_call d cfg cidx req =
  if cfg.reads_via_query && (spec_of cfg).Spec.is_read req then
    (* Read fast path under test: leases / quorum reads.  A [None] from
       the query loop retries once through the ordered path — harmless
       for a read, and it keeps the workload from starving on probes
       during long outages. *)
    match d.query cidx req with
    | Some r -> Some r
    | None -> d.call cidx ~retries:normal_retries req
  else if cfg.dedup_off then begin
    (* Fresh request identity per attempt: retries are no longer
       deduplicatable.  This is the harness's own fault injection — a
       correct stack under this client is genuinely at-least-once, and
       the checker must notice. *)
    let rec go k =
      if k = 0 then None
      else
        match d.call cidx ~retries:1 req with
        | Some r -> Some r
        | None -> go (k - 1)
    in
    go dedup_off_attempts
  end
  else d.call cidx ~retries:normal_retries req

let run_one ?schedule cfg =
  let sched =
    match schedule with
    | Some s -> s
    | None ->
      let rng = Rng.create ((cfg.seed * 31) + 7) in
      Nemesis.generate rng cfg.nemesis
        ~nodes:(match cfg.stack with Sharded -> [ 0; 1; 2; 3; 4; 5 ] | _ -> [ 0; 1; 2 ])
        ~allow_restart:(allow_restart cfg) ~horizon:cfg.horizon
  in
  (* The engine is created inside [deploy], but the recorder needs the
     engine's clock: hand deploy a memoizing constructor it calls as soon
     as its engine exists. *)
  let history_ref = ref None in
  let rejected =
    match cfg.stack with
    | Sharded -> Some (fun r -> Shard.Partition.classify r <> `App)
    | Rex | Smr | Eve | Cbase | Early -> None
  in
  let history_of eng =
    match !history_ref with
    | Some h -> h
    | None ->
      let h = History.create ?rejected eng in
      history_ref := Some h;
      h
  in
  let d = deploy history_of cfg in
  let h = match !history_ref with Some h -> h | None -> assert false in
  let eng = d.eng in
  let t0 = Engine.clock eng in
  (* Nemesis actions, shifted to workload-relative time. *)
  let pending_actions =
    ref
      (List.map
         (fun (a : Nemesis.action) -> { a with Nemesis.at = t0 +. a.at })
         (Nemesis.actions d.target sched))
  in
  let obs = Engine.obs eng in
  let c_faults = Obs.counter obs ~subsystem:"check" "faults_injected" in
  let total = cfg.clients * cfg.ops_per_client in
  let done_ops = ref 0 in
  (* Client fibers: generate, record, call, pace. *)
  for cidx = 0 to cfg.clients - 1 do
    let wl = Rng.create ((cfg.seed * 7919) + (13 * cidx) + 1) in
    Engine.spawn_immediate eng ~node:(List.hd d.target.Nemesis.others)
      ~name:(Printf.sprintf "check-client-%d" cidx) (fun () ->
        for opidx = 0 to cfg.ops_per_client - 1 do
          Engine.sleep (Rng.float wl (cfg.horizon /. float_of_int cfg.ops_per_client));
          let req = gen_request cfg wl ~cidx ~opidx in
          ignore
            (History.record h ~client:cidx ~request:req (fun () ->
                 do_call d cfg cidx req));
          incr done_ops
        done)
  done;
  (* Drive: run the simulation in slices, firing nemesis actions as the
     virtual clock passes them, healing everything at the horizon. *)
  let deadline = t0 +. cfg.horizon +. 60. in
  let cured = ref false in
  let fire_due () =
    let rec go () =
      match !pending_actions with
      | a :: rest when a.Nemesis.at <= Engine.clock eng ->
        pending_actions := rest;
        Obs.Metric.incr c_faults;
        a.Nemesis.run ();
        go ()
      | _ -> ()
    in
    go ()
  in
  let stalled = ref false in
  while (not !stalled) && !done_ops < total && Engine.clock eng < deadline do
    let now = Engine.clock eng in
    let next_action =
      match !pending_actions with
      | a :: _ -> a.Nemesis.at
      | [] -> infinity
    in
    let horizon_at = t0 +. cfg.horizon in
    let until =
      Float.min deadline
        (Float.min (now +. 0.25)
           (Float.min
              (if next_action > now then next_action else now +. 0.01)
              (if !cured then infinity else Float.max horizon_at (now +. 1e-9))))
    in
    let until = Float.max until (now +. 1e-9) in
    Engine.run ~until eng;
    fire_due ();
    if (not !cured) && Engine.clock eng >= horizon_at then begin
      Nemesis.cure d.target;
      cured := true
    end;
    (* An empty event queue leaves the clock short of [until]: nothing
       will ever happen again, stop driving. *)
    if Engine.clock eng < until then stalled := true
  done;
  if not !cured then begin
    Nemesis.cure d.target;
    cured := true
  end;
  Engine.run ~until:(Engine.clock eng +. 2.) eng;
  (* Post-heal probes: committed reads that pin the final state and prove
     the group still makes progress (the wedge detector). *)
  let probe_ok = ref true and probes_done = ref false in
  Engine.spawn_immediate eng ~node:(List.hd d.target.Nemesis.others)
    ~name:"check-probe" (fun () ->
      List.iter
        (fun req ->
          match
            History.record h ~client:(-1) ~request:req (fun () ->
                d.call 0 ~retries:dedup_off_attempts req)
          with
          | Some _ -> ()
          | None -> probe_ok := false)
        (probe_requests cfg);
      probes_done := true);
  let probe_deadline = Engine.clock eng +. 30. in
  let stalled = ref false in
  while
    (not !stalled) && (not !probes_done)
    && Engine.clock eng < probe_deadline
  do
    let until = Engine.clock eng +. 0.5 in
    Engine.run ~until eng;
    if Engine.clock eng < until then stalled := true
  done;
  if not !probes_done then probe_ok := false;
  Engine.run ~until:(Engine.clock eng +. 1.) eng;
  History.resolve h;
  let hstats = History.stats h in
  let entries = History.entries h in
  let result = Lin.check ~max_steps:cfg.max_steps (spec_of cfg) entries in
  let converged =
    (not (d.diverged ()))
    && List.for_all
         (function
           | [] -> false
           | d0 :: rest -> List.for_all (fun x -> x = d0) rest)
         (d.digests ())
  in
  let wedged = (not !probe_ok) || !done_ops < total in
  (* Publish check/* summary counters on the engine's registry so metric
     exports carry the harness verdict alongside the stacks' own
     subsystems. *)
  let bump name v = Obs.Metric.add (Obs.counter obs ~subsystem:"check" name) v in
  bump "ops" hstats.History.ops;
  bump "timeouts" hstats.History.timeouts;
  bump "fates_resolved" hstats.History.resolved;
  bump "double_commits" hstats.History.double_commits;
  bump "violations"
    (match result.Lin.verdict with
    | Lin.Non_linearizable w -> List.length w
    | _ -> 0);
  {
    config = cfg;
    schedule = sched;
    hstats;
    result;
    converged;
    live_probe_ok = not wedged;
    elapsed_virtual = Engine.clock eng -. t0;
    history_lines = History.to_lines h;
  }

let describe_outcome o =
  let verdict =
    match o.result.Lin.verdict with
    | Lin.Linearizable -> "linearizable"
    | Lin.Non_linearizable w -> "NON-LINEARIZABLE: " ^ String.concat "; " w
    | Lin.Limit -> "UNDECIDED (step budget)"
  in
  [
    Printf.sprintf "config: stack=%s app=%s nemesis=%s seed=%d%s"
      (stack_name o.config.stack) (app_name o.config.app)
      (Nemesis.profile_name o.config.nemesis)
      o.config.seed
      (String.concat ""
         [
           (if o.config.dedup_off then " dedup-off" else "");
           (if o.config.reads_via_query then " reads" else "");
           (if o.config.lease_unsafe then " lease-unsafe" else "");
         ]);
    Printf.sprintf "verdict: %s" verdict;
    Printf.sprintf "converged=%b live=%b" o.converged o.live_probe_ok;
    Printf.sprintf
      "ops=%d completed=%d timeouts=%d resolved=%d double_commits=%d \
       (virtual %.2fs)"
      o.hstats.History.ops o.hstats.History.completed
      o.hstats.History.timeouts o.hstats.History.resolved
      o.hstats.History.double_commits o.elapsed_virtual;
  ]
  @ Nemesis.describe o.schedule

let shrink cfg sched o0 =
  let fails s =
    let o = run_one ~schedule:s cfg in
    if passed o then None else Some o
  in
  let rec fixpoint sched o =
    let n = List.length sched.Nemesis.faults in
    let rec try_drop i =
      if i >= n then None
      else
        let cand = Nemesis.without sched i in
        match fails cand with
        | Some o' -> Some (cand, o')
        | None -> try_drop (i + 1)
    in
    match try_drop 0 with
    | Some (s', o') -> fixpoint s' o'
    | None -> (sched, o)
  in
  fixpoint sched o0

type sweep_result = { runs : int; failed : (int * outcome) list }

let sweep ?(progress = fun _ _ -> ()) ~base ~seeds () =
  let failed = ref [] in
  for i = 0 to seeds - 1 do
    let cfg = { base with seed = base.seed + i } in
    let o = run_one cfg in
    progress cfg.seed o;
    if not (passed o) then begin
      let _, o' = shrink cfg o.schedule o in
      failed := (cfg.seed, o') :: !failed
    end
  done;
  { runs = seeds; failed = List.rev !failed }
