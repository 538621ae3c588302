(* Deploying one replication stack the way every workload sees it:
   3 replicas on nodes 0-2, the client fleet on node 3, 8 cores per node,
   8 workers, the network's default delay (50 us base plus 20 us mean
   jitter), and for Rex a checkpoint every second, which bounds its trace
   and lets a restarted replica recover from the latest one.
   Deliberately independent of bench/load_bench.ml so that no edit to
   another bench can change what this benchmark measures. *)

open Sim
module R = Rex_core

type kind = Rex | Smr | Cbase | Early | Eve

let name = function
  | Rex -> "rex"
  | Smr -> "smr"
  | Cbase -> "cbase"
  | Early -> "early"
  | Eve -> "eve"

let replicas = [ 0; 1; 2 ]
let client_node = 3
let cores = 8
let workers = 8

type t = {
  eng : Engine.t;
  rpc : Rpc.t;
  is_primary : int -> bool;
  digest : int -> string;
  query : int -> string -> string;
      (* a read served natively by the replica on the given node *)
  cluster : R.Cluster.t option;  (* Rex only: restart and divergence *)
}

let create ~seed ~trace ~inc_cost kind =
  let factory = Kv.factory ~inc_cost in
  let cfg = R.Config.make ~workers ~replicas () in
  let fabric () =
    let eng = Engine.create ~seed ~cores_per_node:cores ~num_nodes:4 () in
    Obs.enable_tracing (Engine.obs eng) trace;
    let net = Net.create eng in
    (eng, net, Rpc.create net)
  in
  match kind with
  | Rex ->
    let cfg = { cfg with R.Config.checkpoint_interval = Some 1.0 } in
    let c = R.Cluster.create ~seed ~cores_per_node:cores cfg factory in
    Obs.enable_tracing (Engine.obs (R.Cluster.engine c)) trace;
    R.Cluster.start c;
    let srv node = R.Cluster.server c node in
    {
      eng = R.Cluster.engine c;
      rpc = R.Cluster.rpc c;
      is_primary = (fun n -> R.Server.is_primary (srv n));
      digest = (fun n -> R.Server.app_digest (srv n));
      query = (fun n q -> R.Server.query (srv n) q);
      cluster = Some c;
    }
  | Smr ->
    let eng, net, rpc = fabric () in
    let s =
      Array.of_list
        (List.map
           (fun node ->
             Smr.create net rpc cfg ~node ~paxos_store:(Paxos.Store.create ()) factory)
           replicas)
    in
    Array.iter Smr.start s;
    {
      eng;
      rpc;
      is_primary = (fun n -> Smr.is_primary s.(n));
      digest = (fun n -> Smr.app_digest s.(n));
      query = (fun n q -> Smr.query s.(n) q);
      cluster = None;
    }
  | Cbase | Early ->
    let eng, net, rpc = fabric () in
    let mode = if kind = Cbase then Sched.Exec.Cbase else Sched.Exec.Early in
    let s =
      Array.of_list
        (List.map
           (fun node ->
             Sched.Server.create net rpc cfg ~node
               ~paxos_store:(Paxos.Store.create ()) ~mode ~conflict:Kv.conflict
               factory)
           replicas)
    in
    Array.iter Sched.Server.start s;
    {
      eng;
      rpc;
      is_primary = (fun n -> Sched.Server.is_primary s.(n));
      digest = (fun n -> Sched.Server.app_digest s.(n));
      query = (fun n q -> Sched.Server.query s.(n) q);
      cluster = None;
    }
  | Eve ->
    let eng, net, rpc = fabric () in
    let ecfg = Eve.default_config ~workers ~replicas () in
    let s =
      Array.of_list
        (List.map
           (fun node ->
             Eve.create net rpc ecfg ~node ~paxos_store:(Paxos.Store.create ())
               ~conflict_keys:Kv.conflict factory)
           replicas)
    in
    Array.iter Eve.start s;
    {
      eng;
      rpc;
      is_primary = (fun n -> Eve.is_primary s.(n));
      digest = (fun n -> Eve.app_digest s.(n));
      query = (fun n q -> Eve.query s.(n) q);
      cluster = None;
    }

let alive t n = Engine.node_alive t.eng n
let live_replicas t = List.filter (alive t) replicas

let leader t = List.find_opt (fun n -> alive t n && t.is_primary n) replicas

let crash t node =
  match t.cluster with
  | Some c -> R.Cluster.crash c node
  | None -> Engine.crash_node t.eng node

(* Only Rex can bring a crashed replica back: the other stacks have no
   checkpoint recovery path. *)
let restart t node =
  match t.cluster with
  | Some c -> R.Cluster.restart c node
  | None -> invalid_arg "Stack.restart: only Rex restarts a replica"
