open Sim

type t = {
  eng : Engine.t;
  net_ : Net.t;
  rpc_ : Rpc.t;
  cfg : Config.t;
  factory : App.factory;
  mutable replica_nodes : int array;
      (* every node that ever hosted a replica, in creation order *)
  mutable servers_ : Server.t array; (* parallel to [replica_nodes] *)
  mutable stores : Paxos.Store.t array;
  mutable disks : Checkpoint.Disk.t array;
  mutable members : int list; (* current committed membership *)
  make_agreement :
    (Server.t -> Agreement.callbacks -> Agreement.t) option;
  first_client_node : int;
  mutable on_new_server : (Server.t -> unit) option;
}

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
   engine/network/RPC fabric.  [Config.replicas] holds absolute node ids,
   which need not start at 0 — a sharded fleet packs many groups into one
   simulation with disjoint id ranges. *)
let create_in ?(agreement = `Paxos) ?vm_node ~client_node net rpc cfg factory =
  let eng = Net.engine net in
  let replica_nodes = Array.of_list cfg.Config.replicas in
  let n = Array.length replica_nodes in
  Array.iter
    (fun node ->
      if node < 0 || node >= Engine.num_nodes eng then
        invalid_arg
          (Printf.sprintf "Cluster.create_in: replica node %d outside engine"
             node))
    replica_nodes;
  let stores = Array.init n (fun _ -> Paxos.Store.create ()) in
  let disks = Array.init n (fun _ -> Checkpoint.Disk.create ()) in
  let index_of_node node =
    let rec go i =
      if i >= n then invalid_arg "Cluster: unknown replica node"
      else if replica_nodes.(i) = node then i
      else go (i + 1)
    in
    go 0
  in
  let make_agreement =
    match agreement with
    | `Paxos -> None
    | `Chain ->
      (* the view manager lives on a node the benchmarks never crash:
         the client node unless the caller picks another *)
      let vm_node = Option.value vm_node ~default:client_node in
      Chain.view_manager net ~node:vm_node ~replicas:cfg.Config.replicas ();
      Some
        (fun srv cbs ->
          Chain.make net ~node:(Server.node srv) ~vm_node
            ~store:stores.(index_of_node (Server.node srv))
            cbs)
  in
  let servers_ =
    Array.init n (fun i ->
        Server.create ?make_agreement net rpc cfg ~node:replica_nodes.(i)
          ~paxos_store:stores.(i) ~disk:disks.(i) factory)
  in
  {
    eng;
    net_ = net;
    rpc_ = rpc;
    cfg;
    factory;
    replica_nodes;
    servers_;
    stores;
    disks;
    members = cfg.Config.replicas;
    make_agreement;
    first_client_node = client_node;
    on_new_server = None;
  }

let create ?(seed = 7) ?(cores_per_node = 16) ?(extra_nodes = 1)
    ?(net_latency = 50e-6) ?(agreement = `Paxos) cfg factory =
  let n = List.length cfg.Config.replicas in
  if cfg.Config.replicas <> List.init n Fun.id then
    invalid_arg "Cluster.create: replicas must be nodes 0..n-1";
  let eng =
    Engine.create ~seed ~cores_per_node ~num_nodes:(n + extra_nodes) ()
  in
  let net_ = Net.create ~base_latency:net_latency eng in
  let rpc_ = Rpc.create net_ in
  create_in ~agreement ~vm_node:n ~client_node:n net_ rpc_ cfg factory

let engine t = t.eng
let net t = t.net_
let rpc t = t.rpc_
let server t node = t.servers_.(index_of t node)
let servers t = t.servers_
let replica_nodes t = Array.to_list t.replica_nodes
let client_node t = t.first_client_node
let start t = Array.iter Server.start t.servers_
let run ?until t = Engine.run ?until t.eng
let run_for t d = Engine.run ~until:(Engine.clock t.eng +. d) t.eng

let primary t =
  Array.find_opt
    (fun s -> Engine.node_alive t.eng (Server.node s) && Server.is_primary s)
    t.servers_

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

let restart t node =
  let i = index_of t node in
  Engine.restart_node t.eng node;
  (* Rejoin under the current membership: the surviving Paxos store's
     group slot takes precedence inside the replica, so this only
     matters for a replica that crashed before any config committed. *)
  let cfg = { t.cfg with Config.replicas = t.members } in
  let s =
    Server.create ?make_agreement:t.make_agreement t.net_ t.rpc_ cfg ~node
      ~paxos_store:t.stores.(i) ~disk:t.disks.(i) t.factory
  in
  t.servers_.(i) <- s;
  Server.start s;
  match t.on_new_server with Some f -> f s | None -> ()

let client t = Client.create t.rpc_ ~me:t.first_client_node ~replicas:t.members

(* --- Live topology: reconfiguration through the replicated log --- *)

let members t = t.members
let set_on_new_server t f = t.on_new_server <- f

let require_paxos t op =
  if t.make_agreement <> None then
    invalid_arg (op ^ ": chain agreement has no reconfiguration")

(* Drive a membership change to commitment: keep (re)proposing through
   whichever replica currently leads until some primary reports the new
   config.  Re-proposing is idempotent — a replica refuses while its own
   proposal is pending, and once the config applies the transition is no
   longer a one-replica change, so duplicates are rejected at the source. *)
let propose_config ?(limit = 30.) t new_members =
  let deadline = Engine.clock t.eng +. limit in
  let target = List.sort_uniq compare new_members in
  let applied () =
    match primary t with
    | Some s -> List.sort_uniq compare (Server.peers s) = target
    | None -> false
  in
  let rec go () =
    if applied () then ()
    else if Engine.clock t.eng >= deadline then
      failwith "Cluster.propose_config: reconfiguration did not commit"
    else begin
      (match primary t with
      | Some s -> ignore (Server.reconfig s new_members)
      | None -> ());
      run_for t 0.05;
      go ()
    end
  in
  go ()

let add_replica ?limit t =
  require_paxos t "Cluster.add_replica";
  let node = Engine.add_node t.eng in
  Rpc.attach_node t.rpc_ ~node;
  let new_members = t.members @ [ node ] in
  (* Commit first, start second: until the config entry commits the
     current leader does not broadcast to the newcomer, so a newcomer
     started early would see silence and campaign against a healthy
     leader.  Messages sent between commit and start are just dropped;
     heartbeat-driven retransmission and checkpoint fast-forward catch
     the newcomer up once it is live. *)
  propose_config ?limit t new_members;
  t.members <- new_members;
  let store = Paxos.Store.create () in
  Paxos.Store.set_group store new_members;
  let disk = Checkpoint.Disk.create () in
  let cfg = { t.cfg with Config.replicas = new_members } in
  let s =
    Server.create ?make_agreement:t.make_agreement t.net_ t.rpc_ cfg ~node
      ~paxos_store:store ~disk t.factory
  in
  t.replica_nodes <- Array.append t.replica_nodes [| node |];
  t.servers_ <- Array.append t.servers_ [| s |];
  t.stores <- Array.append t.stores [| store |];
  t.disks <- Array.append t.disks [| disk |];
  Server.start s;
  (match t.on_new_server with Some f -> f s | None -> ());
  node

let remove_replica ?limit t node =
  require_paxos t "Cluster.remove_replica";
  ignore (index_of t node);
  if not (List.mem node t.members) then
    invalid_arg "Cluster.remove_replica: not a current member";
  if List.length t.members <= 1 then
    invalid_arg "Cluster.remove_replica: cannot empty the group";
  let new_members = List.filter (fun n -> n <> node) t.members in
  propose_config ?limit t new_members;
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
  Array.iter
    (fun s ->
      if Engine.node_alive t.eng (Server.node s) then
        match Server.divergence s with
        | Some msg -> failwith ("replica diverged: " ^ msg)
        | None -> ())
    t.servers_

(* --- Builder: the launch plumbing every bench used to copy --- *)

let launch ?seed ?cores_per_node ?extra_nodes ?net_latency ?agreement ?limit
    ?(before_start = fun _ -> ()) cfg factory =
  let t = create ?seed ?cores_per_node ?extra_nodes ?net_latency ?agreement cfg factory in
  before_start t;
  start t;
  ignore (await_primary ?limit t);
  t
