(* One application, three replication models:

   - Rex over Paxos       (execute-agree-follow, the paper's design)
   - Rex over a chain     (same execute/follow, different agree stage, §7)
   - Eve-style            (execute-verify: batch, run independently,
                           compare digests, §5)

   All three replicate the same sharded-counter app; the run prints each
   model's throughput for the same 2 000-request workload and shows all
   replicas converging.

   Run with:  dune exec examples/agree_stages.exe *)

open Sim
module R = Rex_core

let counter_app : R.App.factory =
 fun api ->
  let shards = 8 in
  let counters = Array.make shards 0 in
  let locks =
    Array.init shards (fun i -> R.Api.lock api (Printf.sprintf "c%d" i))
  in
  let execute ~request =
    match String.split_on_char ' ' request with
    | [ "INC"; s ] ->
      let i = int_of_string s mod shards in
      R.Api.work api 1e-5;
      Rexsync.Lock.with_lock locks.(i) (fun () ->
          counters.(i) <- counters.(i) + 1;
          string_of_int counters.(i))
    | _ -> "ERR"
  in
  {
    R.App.name = "counter";
    execute;
    query = (fun ~request:_ -> "");
    write_checkpoint = (fun sink -> Array.iter (Codec.write_uvarint sink) counters);
    read_checkpoint =
      (fun src ->
        for i = 0 to shards - 1 do
          counters.(i) <- Codec.read_uvarint src
        done);
    digest =
      (fun () ->
        String.concat "," (Array.to_list (Array.map string_of_int counters)));
  }

let n_requests = 2000

(* Keep 64 random INCs outstanding through [submit] until [n_requests]
   complete; the virtual time that took. *)
let closed_loop eng ~node submit =
  let t0 = Engine.clock eng in
  let completed = ref 0 and launched = ref 0 in
  let rng = Rng.create 9 in
  let rec submit_one () =
    if !launched < n_requests then begin
      incr launched;
      submit
        (Printf.sprintf "INC %d" (Rng.int rng 1000))
        (fun _ ->
          incr completed;
          submit_one ())
    end
  in
  ignore
    (Engine.spawn eng ~node (fun () ->
         for _ = 1 to 64 do
           submit_one ()
         done));
  while !completed < n_requests do
    Engine.run ~until:(Engine.clock eng +. 0.1) eng
  done;
  Engine.clock eng -. t0

let run_rex_cluster name agreement =
  let cfg = R.Config.make ~workers:8 ~replicas:[ 0; 1; 2 ] () in
  let cluster = R.Cluster.create ~seed:5 ~agreement cfg counter_app in
  R.Cluster.start cluster;
  let primary = R.Cluster.await_primary cluster in
  let eng = R.Cluster.engine cluster in
  let dt =
    closed_loop eng ~node:(R.Server.node primary) (R.Server.submit primary)
  in
  R.Cluster.run_for cluster 0.5;
  let digests =
    Array.to_list (R.Cluster.servers cluster) |> List.map R.Server.app_digest
  in
  Printf.printf "%-14s %8.0f req/s   replicas agree: %b\n%!" name
    (float_of_int n_requests /. dt)
    (List.for_all (( = ) (List.hd digests)) digests)

let run_eve () =
  let replicas = [ 0; 1; 2 ] in
  let cfg = Eve.default_config ~workers:8 ~replicas () in
  let conflict_keys req =
    match String.split_on_char ' ' req with [ "INC"; s ] -> [ s ] | _ -> []
  in
  let cluster =
    R.Cluster.create_log ~seed:5 ~cores_per_node:16 ~replicas
      (fun net rpc ~node ~paxos_store ->
        Eve.create net rpc cfg ~node ~paxos_store ~conflict_keys counter_app)
  in
  R.Cluster.start cluster;
  R.Cluster.run ~until:1.0 cluster;
  let primary = R.Cluster.await_primary cluster in
  let eng = R.Cluster.engine cluster in
  let dt =
    closed_loop eng ~node:(R.Cluster.client_node cluster)
      (Eve.submit primary)
  in
  Engine.run ~until:(Engine.clock eng +. 0.5) eng;
  let digests = R.Cluster.digests cluster in
  Printf.printf "%-14s %8.0f req/s   replicas agree: %b   (batches avg %.1f)\n%!"
    "eve"
    (float_of_int n_requests /. dt)
    (List.for_all (( = ) (List.hd digests)) digests)
    (Eve.stats primary).Eve.avg_batch

let () =
  Printf.printf "replicating the same app under three models (%d requests):\n"
    n_requests;
  run_rex_cluster "rex/paxos" `Paxos;
  run_rex_cluster "rex/chain" `Chain;
  run_eve ()
