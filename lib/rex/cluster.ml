open Sim

type 'x log_mk =
  Net.t -> Rpc.t -> node:int -> paxos_store:Paxos.Store.t -> 'x Log_server.t

(* What the deployer needs of one stack's replica server.  [make] builds
   a server over a node's durable state (a fresh pair for a founding
   member or a newcomer), rebuilt from it after a restart. *)
type 's server = {
  make :
    members:int list -> node:int -> Paxos.Store.t -> Checkpoint.Disk.t -> 's;
  node : 's -> int;
  start : 's -> unit;
  is_primary : 's -> bool;
  app_digest : 's -> string;
  frontend : 's -> Frontend.t;
  reconfig : ('s -> int list -> bool) option;
      (* [None]: the agree stage cannot change membership *)
  peers : 's -> int list;
  divergence : 's -> string option;
}

type 's group = {
  eng : Engine.t;
  net_ : Net.t;
  rpc_ : Rpc.t;
  sv : 's server;
  mutable replica_nodes : int array;
      (* every node that ever hosted a replica, in creation order *)
  mutable servers_ : 's array; (* parallel to [replica_nodes] *)
  mutable stores : Paxos.Store.t array;
  mutable disks : Checkpoint.Disk.t array;
  mutable members : int list; (* current committed membership *)
  first_client_node : int;
  mutable on_new_server : ('s -> unit) option;
}

type t = Server.t group

let index_of t node =
  let n = Array.length t.replica_nodes in
  let rec go i =
    if i >= n then
      invalid_arg (Printf.sprintf "Cluster: node %d hosts no replica" node)
    else if t.replica_nodes.(i) = node then i
    else go (i + 1)
  in
  go 0

(* Shared construction: wire one replica group into an existing
   engine/network/RPC fabric.  The replica nodes hold absolute ids, which
   need not start at 0 — a sharded fleet packs many groups into one
   simulation with disjoint id ranges. *)
let make_in sv ~client_node net rpc replicas =
  let eng = Net.engine net in
  let replica_nodes = Array.of_list replicas in
  Array.iter
    (fun node ->
      if node < 0 || node >= Engine.num_nodes eng then
        invalid_arg
          (Printf.sprintf "Cluster.create_in: replica node %d outside engine"
             node))
    replica_nodes;
  let stores = Array.map (fun _ -> Paxos.Store.create ()) replica_nodes in
  let disks = Array.map (fun _ -> Checkpoint.Disk.create ()) replica_nodes in
  let servers_ =
    Array.mapi
      (fun i node -> sv.make ~members:replicas ~node stores.(i) disks.(i))
      replica_nodes
  in
  {
    eng;
    net_ = net;
    rpc_ = rpc;
    sv;
    replica_nodes;
    servers_;
    stores;
    disks;
    members = replicas;
    first_client_node = client_node;
    on_new_server = None;
  }

(* A fresh engine whose nodes [0 .. n-1] host the replicas and node [n]
   the clients. *)
let fabric ~seed ~cores_per_node ~net_latency replicas =
  let n = List.length replicas in
  if replicas <> List.init n Fun.id then
    invalid_arg "Cluster.create: replicas must be nodes 0..n-1";
  let eng = Engine.create ~seed ~cores_per_node ~num_nodes:(n + 1) () in
  let net = Net.create ~base_latency:net_latency eng in
  (net, Rpc.create net, n)

let rex_server ?(agreement = `Paxos) ?vm_node ~client_node net rpc cfg
    factory =
  let chain =
    match agreement with
    | `Paxos -> None
    | `Chain ->
      (* the view manager lives on a node the benchmarks never crash:
         the client node unless the caller picks another *)
      let vm_node = Option.value vm_node ~default:client_node in
      Chain.view_manager net ~node:vm_node ~replicas:cfg.Config.replicas ();
      Some vm_node
  in
  {
    make =
      (fun ~members ~node paxos_store disk ->
        let make_agreement =
          Option.map
            (fun vm_node srv cbs ->
              Chain.make net ~node:(Server.node srv) ~vm_node
                ~store:paxos_store cbs)
            chain
        in
        Server.create ?make_agreement net rpc
          { cfg with Config.replicas = members }
          ~node ~paxos_store ~disk factory);
    node = Server.node;
    start = Server.start;
    is_primary = Server.is_primary;
    app_digest = Server.app_digest;
    frontend = Server.frontend;
    reconfig = (if chain = None then Some Server.reconfig else None);
    peers = Server.peers;
    divergence = Server.divergence;
  }

let create_in ?agreement ?vm_node ~client_node net rpc cfg factory =
  make_in
    (rex_server ?agreement ?vm_node ~client_node net rpc cfg factory)
    ~client_node net rpc cfg.Config.replicas

let create ?(seed = 7) ?(cores_per_node = 16) ?(net_latency = 50e-6)
    ?agreement cfg factory =
  let net, rpc, n =
    fabric ~seed ~cores_per_node ~net_latency cfg.Config.replicas
  in
  create_in ?agreement ~vm_node:n ~client_node:n net rpc cfg factory

let log_server net rpc (mk : _ log_mk) =
  {
    make =
      (fun ~members:_ ~node paxos_store _disk ->
        (* No checkpoints: a restarted server re-executes the committed
           log its store keeps (a fresh store replays nothing). *)
        let s = mk net rpc ~node ~paxos_store in
        Log_server.replay s;
        s);
    node = Log_server.node;
    start = Log_server.start;
    is_primary = Log_server.is_primary;
    app_digest = Log_server.app_digest;
    frontend = Log_server.frontend;
    reconfig = Some Log_server.reconfig;
    peers = Log_server.peers;
    divergence = (fun _ -> None);
  }

let create_log_in net rpc ~client_node ~replicas mk =
  make_in (log_server net rpc mk) ~client_node net rpc replicas

let create_log ?(seed = 7) ?(cores_per_node = 8) ~replicas mk =
  let net, rpc, n = fabric ~seed ~cores_per_node ~net_latency:50e-6 replicas in
  create_log_in net rpc ~client_node:n ~replicas mk

let engine t = t.eng
let net t = t.net_
let rpc t = t.rpc_
let server t node = t.servers_.(index_of t node)
let servers t = t.servers_
let replica_nodes t = Array.to_list t.replica_nodes
let client_node t = t.first_client_node
let node t s = t.sv.node s
let frontend t s = t.sv.frontend s
let start t = Array.iter t.sv.start t.servers_
let run ?until t = Engine.run ?until t.eng
let run_for t d = Engine.run ~until:(Engine.clock t.eng +. d) t.eng
let alive t s = Engine.node_alive t.eng (t.sv.node s)
let primary t =
  Array.find_opt (fun s -> alive t s && t.sv.is_primary s) t.servers_

let live t = List.filter (alive t) (Array.to_list t.servers_)
let digests t = List.map t.sv.app_digest (live t)

let await_primary ?(limit = 30.) t =
  let deadline = Engine.clock t.eng +. limit in
  let rec go () =
    match primary t with
    | Some s -> s
    | None ->
      if Engine.clock t.eng >= deadline then
        failwith "Cluster.await_primary: no primary elected"
      else begin
        run_for t 0.05;
        go ()
      end
  in
  go ()

let crash t node =
  ignore (index_of t node);
  Engine.crash_node t.eng node

let announce t s = Option.iter (fun f -> f s) t.on_new_server

let restart t node =
  let i = index_of t node in
  Engine.restart_node t.eng node;
  (* Rejoin under the current membership: the surviving Paxos store's
     group slot takes precedence inside the replica, so this only
     matters for a replica that crashed before any config committed. *)
  let s = t.sv.make ~members:t.members ~node t.stores.(i) t.disks.(i) in
  t.servers_.(i) <- s;
  t.sv.start s;
  announce t s

let client t = Client.create t.rpc_ ~me:t.first_client_node ~replicas:t.members

(* --- Live topology: reconfiguration through the replicated log --- *)

let members t = t.members
let set_on_new_server t f = t.on_new_server <- f

let reconfig_of t op =
  match t.sv.reconfig with
  | Some r -> r
  | None -> invalid_arg (op ^ ": chain agreement has no reconfiguration")

(* Drive a membership change to commitment: keep (re)proposing through
   whichever replica currently leads until some primary reports the new
   config.  Re-proposing is idempotent — a replica refuses while its own
   proposal is pending, and once the config applies the transition is no
   longer a one-replica change, so duplicates are rejected at the source. *)
let propose_config ?(limit = 30.) t reconfig new_members =
  let deadline = Engine.clock t.eng +. limit in
  let target = List.sort_uniq compare new_members in
  let applied () =
    match primary t with
    | Some s -> List.sort_uniq compare (t.sv.peers s) = target
    | None -> false
  in
  let rec go () =
    if applied () then ()
    else if Engine.clock t.eng >= deadline then
      failwith "Cluster.propose_config: reconfiguration did not commit"
    else begin
      (match primary t with
      | Some s -> ignore (reconfig s new_members)
      | None -> ());
      run_for t 0.05;
      go ()
    end
  in
  go ()

let add_replica ?limit t =
  let reconfig = reconfig_of t "Cluster.add_replica" in
  let node = Engine.add_node t.eng in
  Rpc.attach_node t.rpc_ ~node;
  let new_members = t.members @ [ node ] in
  (* Commit first, start second: until the config entry commits the
     current leader does not broadcast to the newcomer, so a newcomer
     started early would see silence and campaign against a healthy
     leader.  Messages sent between commit and start are just dropped;
     heartbeat-driven retransmission (and, for Rex, checkpoint
     fast-forward) catch the newcomer up once it is live. *)
  propose_config ?limit t reconfig new_members;
  t.members <- new_members;
  let store = Paxos.Store.create () in
  Paxos.Store.set_group store new_members;
  let disk = Checkpoint.Disk.create () in
  let s = t.sv.make ~members:new_members ~node store disk in
  t.replica_nodes <- Array.append t.replica_nodes [| node |];
  t.servers_ <- Array.append t.servers_ [| s |];
  t.stores <- Array.append t.stores [| store |];
  t.disks <- Array.append t.disks [| disk |];
  t.sv.start s;
  announce t s;
  node

let remove_replica ?limit t node =
  let reconfig = reconfig_of t "Cluster.remove_replica" in
  ignore (index_of t node);
  if not (List.mem node t.members) then
    invalid_arg "Cluster.remove_replica: not a current member";
  if List.length t.members <= 1 then
    invalid_arg "Cluster.remove_replica: cannot empty the group";
  let new_members = List.filter (fun n -> n <> node) t.members in
  propose_config ?limit t reconfig new_members;
  t.members <- new_members;
  if Engine.node_alive t.eng node then Engine.crash_node t.eng node

let replace_replica ?limit t node =
  let fresh = add_replica ?limit t in
  remove_replica ?limit t node;
  fresh

let rolling_restart ?(pause = 1.0) t =
  List.iter
    (fun node ->
      if Engine.node_alive t.eng node then begin
        crash t node;
        run_for t pause;
        restart t node;
        ignore (await_primary t);
        run_for t pause
      end)
    t.members

let check_no_divergence t =
  List.iter
    (fun s ->
      match t.sv.divergence s with
      | Some msg -> failwith ("replica diverged: " ^ msg)
      | None -> ())
    (live t)

(* --- Builder: the launch plumbing every bench used to copy --- *)

let launch ?seed ?cores_per_node ?net_latency ?agreement ?limit
    ?(before_start = fun _ -> ()) cfg factory =
  let t = create ?seed ?cores_per_node ?net_latency ?agreement cfg factory in
  before_start t;
  start t;
  ignore (await_primary ?limit t);
  t
