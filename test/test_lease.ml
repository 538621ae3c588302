(* Leader leases and the linearizable read fast path: lease grant /
   expiry / mutual-exclusion invariants at the Paxos layer, and
   stale-read fencing + quorum reads at the stack layer (SMR, Rex). *)

open Sim
module R = Rex_core

(* --- Paxos-level cluster (mirrors test_paxos's harness) --- *)

type replica_ctx = {
  mutable rep : Paxos.Replica.t;
  store : Paxos.Store.t;
}

type cluster = {
  eng : Engine.t;
  net : Net.t;
  nodes : int list;
  ctxs : replica_ctx array;
}

let mk_replica net cfg store =
  let cbs =
    {
      Paxos.Replica.on_committed = (fun _ _ -> ());
      on_become_leader = (fun () -> ());
      on_new_leader = (fun _ -> ());
    }
  in
  let rep = Paxos.Replica.create net cfg store cbs in
  Paxos.Replica.start rep;
  rep

let mk_cluster ?(seed = 5) ?(n = 3) () =
  let eng = Engine.create ~seed ~cores_per_node:4 ~num_nodes:n () in
  let net = Net.create eng in
  let nodes = List.init n Fun.id in
  let ctxs =
    Array.init n (fun i ->
        let store = Paxos.Store.create () in
        let cfg = Paxos.Replica.default_config ~me:i ~peers:nodes () in
        { rep = mk_replica net cfg store; store })
  in
  { eng; net; nodes; ctxs }

let run_for c seconds = Engine.run ~until:(Engine.clock c.eng +. seconds) c.eng

let current_leader c =
  List.find_opt
    (fun i ->
      Engine.node_alive c.eng i && Paxos.Replica.is_leader c.ctxs.(i).rep)
    c.nodes

let lease_holders c =
  List.filter
    (fun i ->
      Engine.node_alive c.eng i && Paxos.Replica.holds_lease c.ctxs.(i).rep)
    c.nodes

(* Steady state: the leader (and only the leader) holds a quorum lease,
   and its read index tracks commitment. *)
let lease_steady_state () =
  let c = mk_cluster () in
  run_for c 1.0;
  let l =
    match current_leader c with
    | Some l -> l
    | None -> Alcotest.fail "no leader elected"
  in
  Alcotest.(check bool) "leader holds lease" true
    (Paxos.Replica.holds_lease c.ctxs.(l).rep);
  Alcotest.(check (list int)) "only the leader holds it" [ l ]
    (lease_holders c);
  ignore
    (Engine.spawn c.eng ~node:l (fun () ->
         ignore (Paxos.Replica.propose c.ctxs.(l).rep "w1")));
  run_for c 0.5;
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "replica %d read_index covers the commit" i)
        true
        (Paxos.Replica.read_index c.ctxs.(i).rep >= 1))
    c.nodes

(* An isolated leader's lease must lapse once its grants (followers'
   clocks) run out — it can no longer serve local reads — and the
   healthy majority must elect a successor. *)
let lease_expires_in_partition () =
  let c = mk_cluster ~seed:7 () in
  run_for c 1.0;
  let l = Option.get (current_leader c) in
  List.iter (fun i -> if i <> l then Net.partition c.net l i) c.nodes;
  run_for c 0.5;
  Alcotest.(check bool) "isolated leader's lease lapsed" false
    (Paxos.Replica.holds_lease c.ctxs.(l).rep);
  let healthy_leader =
    List.exists
      (fun i -> i <> l && Paxos.Replica.is_leader c.ctxs.(i).rep)
      c.nodes
  in
  Alcotest.(check bool) "healthy side elected a successor" true healthy_leader;
  Net.heal_all c.net

(* Renewal racing leader change: through partition / heal churn, at no
   quiescent point may two live replicas both believe their lease is
   valid — the follower grants that fence foreign Prepares are the same
   grants that make the lease, so mutual exclusion is structural. *)
let no_two_leases_during_churn () =
  let c = mk_cluster ~seed:91 () in
  run_for c 1.0;
  let check_exclusion tag =
    match lease_holders c with
    | [] | [ _ ] -> ()
    | hs ->
      Alcotest.fail
        (Printf.sprintf "%s: %d live replicas hold a lease at once" tag
           (List.length hs))
  in
  for round = 1 to 3 do
    (match current_leader c with
    | Some l ->
      List.iter (fun i -> if i <> l then Net.partition c.net l i) c.nodes
    | None -> ());
    for step = 1 to 60 do
      run_for c 0.005;
      check_exclusion (Printf.sprintf "round %d partition step %d" round step)
    done;
    Net.heal_all c.net;
    for step = 1 to 60 do
      run_for c 0.005;
      check_exclusion (Printf.sprintf "round %d heal step %d" round step)
    done
  done;
  (* Liveness after the churn: someone reacquires a lease. *)
  let rec wait n =
    if lease_holders c = [] && n > 0 then begin
      run_for c 0.1;
      wait (n - 1)
    end
  in
  wait 30;
  Alcotest.(check bool) "a lease is held again after churn" true
    (lease_holders c <> [])

(* --- Stack level: an SMR cluster with real clients --- *)

module L = R.Cluster

let client_node = 3

let mk_smr ?(seed = 42) () =
  let replicas = [ 0; 1; 2 ] in
  let cfg = R.Config.make ~replicas () in
  let s =
    L.create_log ~seed ~replicas (fun net rpc ~node ~paxos_store ->
        Smr.create net rpc cfg ~node ~paxos_store (Apps.Kyoto.factory ()))
  in
  L.start s;
  L.run ~until:1.0 s;
  ignore (L.await_primary s);
  s

(* Run [f] to completion in a client fiber, pumping the engine. *)
let in_fiber eng ~node f =
  let fin = ref false in
  ignore
    (Engine.spawn eng ~node ~name:"test-client" (fun () ->
         f ();
         fin := true));
  let steps = ref 0 in
  while (not !fin) && !steps < 600 do
    Engine.run ~until:(Engine.clock eng +. 0.5) eng;
    incr steps
  done;
  Alcotest.(check bool) "client fiber finished" true !fin

let smr_primary s =
  match L.primary s with
  | Some p -> Smr.node p
  | None -> Alcotest.fail "no SMR primary"

let frontend_count eng ~node name =
  Obs.Metric.value
    (Obs.counter (Engine.obs eng) ~subsystem:"frontend"
       ~labels:[ ("node", string_of_int node) ]
       name)

(* Fencing after primary isolation: a primary cut off from its peers
   (client links stay up) loses its lease, so a read aimed at it must
   not return pre-partition state — the client ends up at the new
   primary and sees the newer committed write. *)
let fencing_after_primary_isolation () =
  let s = mk_smr ~seed:17 () in
  let eng = L.engine s in
  let cl = L.client s in
  in_fiber eng ~node:client_node (fun () ->
      Alcotest.(check (option string)) "v1 acked" (Some "OK")
        (R.Client.call cl "SET k v1"));
  let stale = smr_primary s in
  List.iter
    (fun i -> if i <> stale then Net.partition (L.net s) stale i)
    (L.replica_nodes s);
  Engine.run ~until:(Engine.clock eng +. 0.5) eng;
  (* A second client commits v2 on the healthy side. *)
  let cl2 = L.client s in
  in_fiber eng ~node:client_node (fun () ->
      Alcotest.(check (option string)) "v2 acked on healthy side" (Some "OK")
        (R.Client.call cl2 "SET k v2"));
  (* Read aimed at the stale primary: fenced local path, no quorum, so
     the client rotates until the new primary answers — never v1. *)
  let got = ref None in
  in_fiber eng ~node:client_node (fun () ->
      got := R.Client.query ~on:stale cl "GET k");
  Alcotest.(check (option string)) "read fenced: sees v2, not v1"
    (Some "v2") !got;
  Net.heal_all (L.net s)

(* Quorum read from a secondary: a non-primary replica serves a
   linearizable read via a majority read-index round — no redirect, no
   consensus slot — and the obs counter proves the route taken. *)
let quorum_read_from_secondary () =
  let s = mk_smr ~seed:23 () in
  let cl = L.client s in
  let primary = smr_primary s in
  let secondary = List.find (fun i -> i <> primary) (L.replica_nodes s) in
  in_fiber (L.engine s) ~node:client_node (fun () ->
      Alcotest.(check (option string)) "write acked" (Some "OK")
        (R.Client.call cl "SET q v7");
      Alcotest.(check (option string)) "secondary serves latest value"
        (Some "v7")
        (R.Client.query ~on:secondary cl "GET q"));
  Alcotest.(check bool) "served via the quorum-read route" true
    (frontend_count (L.engine s) ~node:secondary "reads_fast_quorum" > 0)

(* Lease read on the primary: served locally under the lease, counted. *)
let lease_read_on_primary () =
  let s = mk_smr ~seed:29 () in
  let cl = L.client s in
  let primary = smr_primary s in
  in_fiber (L.engine s) ~node:client_node (fun () ->
      Alcotest.(check (option string)) "write acked" (Some "OK")
        (R.Client.call cl "SET p v9");
      Alcotest.(check (option string)) "primary serves latest value"
        (Some "v9")
        (R.Client.query ~on:primary cl "GET p"));
  Alcotest.(check bool) "served via the lease route" true
    (frontend_count (L.engine s) ~node:primary "reads_fast_lease" > 0)

(* Rex: the primary's fast-path read is gated on commit of the observed
   speculative cut, so a query right after an acked write sees it. *)
let rex_reads_latest () =
  let cfg =
    R.Config.make ~replicas:[ 0; 1; 2 ] ~workers:2 ()
  in
  let cluster = R.Cluster.launch ~seed:11 cfg (Apps.Kyoto.factory ()) in
  let eng = R.Cluster.engine cluster in
  let cl = R.Cluster.client cluster in
  in_fiber eng
    ~node:(R.Cluster.client_node cluster)
    (fun () ->
      for i = 1 to 5 do
        let v = Printf.sprintf "r%d" i in
        Alcotest.(check (option string))
          (Printf.sprintf "write %d acked" i)
          (Some "OK")
          (R.Client.call cl ("SET rk " ^ v));
        Alcotest.(check (option string))
          (Printf.sprintf "read %d sees it" i)
          (Some v)
          (R.Client.query cl "GET rk")
      done)

let campaigns eng ~node =
  Obs.Metric.value
    (Obs.counter (Engine.obs eng) ~subsystem:"paxos"
       ~labels:[ ("node", string_of_int node) ]
       "campaigns")

(* Pre-vote: a follower cut off from its group for 1 s and then healed
   must not depose the leader.  Campaigning alone in the partition, it
   would raise its ballot each time; on heal it Nacks the leader's next
   heartbeat with that ballot, and the leader steps down and has to
   campaign again. *)
let rejoin_keeps_leader () =
  List.iter
    (fun seed ->
      let s = mk_smr ~seed () in
      let eng = L.engine s and net = L.net s in
      let leader = smr_primary s in
      let before = campaigns eng ~node:leader in
      let cut = List.find (fun i -> i <> leader) (L.replica_nodes s) in
      List.iter
        (fun i -> if i <> cut then Net.partition net cut i)
        (L.replica_nodes s);
      Engine.run ~until:(Engine.clock eng +. 1.0) eng;
      Net.heal_all net;
      Engine.run ~until:(Engine.clock eng +. 0.5) eng;
      let what = Printf.sprintf "seed %d: " seed in
      Alcotest.(check int)
        (what ^ "the leader never campaigned again")
        before
        (campaigns eng ~node:leader);
      Alcotest.(check int) (what ^ "it still leads") leader (smr_primary s))
    [ 1; 2; 3; 4; 5 ]

(* QCheck: after any acked write sequence, a fast-path read — on the
   primary or any secondary — observes the latest released write to
   that key.  Ops are derived from the generated seed so each case is a
   fresh deterministic cluster. *)
let prop_reads_see_latest_write =
  QCheck.Test.make ~name:"fast-path reads observe the latest released write"
    ~count:4
    QCheck.(int_range 0 1000)
    (fun case_seed ->
      let s = mk_smr ~seed:(1000 + case_seed) () in
      let cl = L.client s in
      let rng = Rng.create (case_seed + 1) in
      let model = Hashtbl.create 8 in
      let ok = ref true in
      in_fiber (L.engine s) ~node:client_node (fun () ->
          for i = 0 to 11 do
            let key = Printf.sprintf "pk%d" (Rng.int rng 4) in
            if Rng.float rng 1.0 < 0.5 then begin
              let v = Printf.sprintf "c%d" i in
              match R.Client.call cl (Printf.sprintf "SET %s %s" key v) with
              | Some _ -> Hashtbl.replace model key v
              | None -> ()  (* unacked: outcome ambiguous, skip *)
            end
            else begin
              let on = Rng.pick rng (L.replica_nodes s) in
              let expect =
                Option.value (Hashtbl.find_opt model key) ~default:"NOTFOUND"
              in
              match R.Client.query ~on cl ("GET " ^ key) with
              | Some got -> if got <> expect then ok := false
              | None -> ()  (* read timed out: no value released *)
            end
          done);
      !ok)

let suite =
  [
    Alcotest.test_case "lease: steady state" `Quick lease_steady_state;
    Alcotest.test_case "lease: expires in partition" `Quick
      lease_expires_in_partition;
    Alcotest.test_case "lease: no two holders during churn" `Quick
      no_two_leases_during_churn;
    Alcotest.test_case "fencing after primary isolation" `Quick
      fencing_after_primary_isolation;
    Alcotest.test_case "quorum read from a secondary" `Quick
      quorum_read_from_secondary;
    Alcotest.test_case "lease read on the primary" `Quick
      lease_read_on_primary;
    Alcotest.test_case "rex: reads see latest write" `Quick rex_reads_latest;
    Alcotest.test_case "rejoin after a partition keeps the leader" `Quick
      rejoin_keeps_leader;
    QCheck_alcotest.to_alcotest prop_reads_see_latest_write;
  ]
