open Sim

type 'x mk =
  Net.t -> Rpc.t -> node:int -> paxos_store:Paxos.Store.t -> 'x Log_server.t

type 'x t = {
  eng : Engine.t;
  net_ : Net.t;
  rpc_ : Rpc.t;
  mk : 'x mk;
  nodes : int array;
  stores : Paxos.Store.t array;  (* parallel to [nodes] *)
  servers_ : 'x Log_server.t array;  (* parallel to [nodes] *)
  client_node_ : int;
  mutable on_new_server : ('x Log_server.t -> unit) option;
}

let create_in net rpc ~client_node ~replicas mk =
  let nodes = Array.of_list replicas in
  let stores = Array.map (fun _ -> Paxos.Store.create ()) nodes in
  let servers_ =
    Array.mapi (fun i node -> mk net rpc ~node ~paxos_store:stores.(i)) nodes
  in
  {
    eng = Net.engine net;
    net_ = net;
    rpc_ = rpc;
    mk;
    nodes;
    stores;
    servers_;
    client_node_ = client_node;
    on_new_server = None;
  }

let create ?(seed = 7) ?(cores_per_node = 8) ~replicas mk =
  let n = List.length replicas in
  if replicas <> List.init n Fun.id then
    invalid_arg "Log_cluster.create: replicas must be nodes 0..n-1";
  let eng = Engine.create ~seed ~cores_per_node ~num_nodes:(n + 1) () in
  let net = Net.create eng in
  create_in net (Rpc.create net) ~client_node:n ~replicas mk

let start t = Array.iter Log_server.start t.servers_
let engine t = t.eng
let net t = t.net_
let rpc t = t.rpc_
let replica_nodes t = Array.to_list t.nodes
let client_node t = t.client_node_
let servers t = t.servers_
let alive t s = Engine.node_alive t.eng (Log_server.node s)

let primary t =
  Array.find_opt (fun s -> alive t s && Log_server.is_primary s) t.servers_

let await_primary ?(fallback = 3.0) t =
  (* Absolute times: a second group on the same engine finds the clock
     already there and runs nothing. *)
  let run_to at = if Engine.clock t.eng < at then Engine.run ~until:at t.eng in
  run_to 1.0;
  if primary t = None then run_to fallback;
  match primary t with
  | Some s -> s
  | None -> failwith "Log_cluster.await_primary: no primary elected"

let live t = List.filter (alive t) (Array.to_list t.servers_)
let digests t = List.map Log_server.app_digest (live t)

let client t =
  Client.create t.rpc_ ~me:t.client_node_ ~replicas:(replica_nodes t)

let index_of t node =
  let rec go i =
    if i >= Array.length t.nodes then
      invalid_arg (Printf.sprintf "Log_cluster: node %d hosts no replica" node)
    else if t.nodes.(i) = node then i
    else go (i + 1)
  in
  go 0

let crash t node =
  ignore (index_of t node);
  Engine.crash_node t.eng node

let upgrade t node =
  let i = index_of t node in
  Engine.crash_node t.eng node;
  Engine.restart_node t.eng node;
  let s = t.mk t.net_ t.rpc_ ~node ~paxos_store:t.stores.(i) in
  Log_server.replay s;
  Log_server.start s;
  t.servers_.(i) <- s;
  Option.iter (fun f -> f s) t.on_new_server

let set_on_new_server t f = t.on_new_server <- f
