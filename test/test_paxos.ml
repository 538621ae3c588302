(* Paxos tests: election, ordered commitment, failover with value
   recovery, catch-up, and agreement under message loss. *)

open Sim

type replica_ctx = {
  mutable rep : Paxos.Replica.t;
  store : Paxos.Store.t;
  mutable delivered : (int * string) list;  (* reverse order *)
  mutable became_leader : int;  (* count *)
}

type cluster = {
  eng : Engine.t;
  net : Net.t;
  nodes : int list;
  ctxs : replica_ctx array;
}

let mk_replica cluster_net cfg store ctx =
  let cbs =
    {
      Paxos.Replica.on_committed =
        (fun i v -> ctx.delivered <- (i, v) :: ctx.delivered);
      on_become_leader = (fun () -> ctx.became_leader <- ctx.became_leader + 1);
      on_new_leader = (fun _ -> ());
    }
  in
  let rep = Paxos.Replica.create cluster_net cfg store cbs in
  Paxos.Replica.start rep;
  rep

let mk_cluster ?(seed = 5) ?(n = 3) () =
  let eng = Engine.create ~seed ~cores_per_node:4 ~num_nodes:n () in
  let net = Net.create eng in
  let nodes = List.init n Fun.id in
  let ctxs =
    Array.init n (fun _ ->
        {
          rep = Obj.magic ();
          store = Paxos.Store.create ();
          delivered = [];
          became_leader = 0;
        })
  in
  let cluster = { eng; net; nodes; ctxs } in
  List.iter
    (fun i ->
      let cfg = Paxos.Replica.default_config ~me:i ~peers:nodes () in
      ctxs.(i).rep <- mk_replica net cfg ctxs.(i).store ctxs.(i))
    nodes;
  cluster

let restart_replica c i =
  Engine.restart_node c.eng i;
  let cfg = Paxos.Replica.default_config ~me:i ~peers:c.nodes () in
  c.ctxs.(i).rep <- mk_replica c.net cfg c.ctxs.(i).store c.ctxs.(i)

let current_leader c =
  let alive =
    List.filter (fun i -> Engine.node_alive c.eng i) c.nodes
  in
  List.find_opt (fun i -> Paxos.Replica.is_leader c.ctxs.(i).rep) alive

let run_for c seconds = Engine.run ~until:(Engine.clock c.eng +. seconds) c.eng

(* Drive proposals from a fiber on an alive node: find the leader, propose,
   wait for local commitment. *)
let propose_values c values =
  let driver_node =
    List.find (fun i -> Engine.node_alive c.eng i) c.nodes
  in
  let finished = ref false in
  ignore
    (Engine.spawn c.eng ~node:driver_node ~name:"driver" (fun () ->
         List.iter
           (fun v ->
             let rec try_propose () =
               match current_leader c with
               | Some l when Paxos.Replica.propose c.ctxs.(l).rep v -> l
               | _ ->
                 Engine.sleep 2e-3;
                 try_propose ()
             in
             let l = try_propose () in
             let target = Paxos.Replica.next_instance c.ctxs.(l).rep in
             ignore target;
             let rec wait_commit () =
               let committed =
                 List.exists
                   (fun i ->
                     Engine.node_alive c.eng i
                     && List.exists (fun (_, v') -> v' = v)
                          c.ctxs.(i).delivered)
                   c.nodes
               in
               if not committed then begin
                 Engine.sleep 2e-3;
                 wait_commit ()
               end
             in
             wait_commit ())
           values;
         finished := true));
  let rec pump limit =
    run_for c 1.0;
    if (not !finished) && limit > 0 then pump (limit - 1)
  in
  pump 60;
  Alcotest.(check bool) "driver finished" true !finished

let delivered_values ctx = List.rev_map snd ctx.delivered

let election_single_leader () =
  let c = mk_cluster () in
  run_for c 1.0;
  (match current_leader c with
  | Some _ -> ()
  | None -> Alcotest.fail "no leader elected");
  let leaders =
    List.filter (fun i -> Paxos.Replica.is_leader c.ctxs.(i).rep) c.nodes
  in
  Alcotest.(check int) "exactly one leader" 1 (List.length leaders)

let commit_in_order () =
  let c = mk_cluster () in
  run_for c 1.0;
  let values = List.init 10 (fun i -> Printf.sprintf "v%d" i) in
  propose_values c values;
  run_for c 1.0;
  List.iter
    (fun i ->
      Alcotest.(check (list string))
        (Printf.sprintf "replica %d delivered all, in order" i)
        values
        (delivered_values c.ctxs.(i));
      let instances = List.rev_map fst c.ctxs.(i).delivered in
      Alcotest.(check (list int))
        (Printf.sprintf "replica %d instances contiguous" i)
        (List.init 10 (fun k -> k + 1))
        instances)
    c.nodes

let failover_elects_new_leader () =
  let c = mk_cluster ~seed:7 () in
  run_for c 1.0;
  propose_values c [ "a"; "b" ];
  let l1 = Option.get (current_leader c) in
  Engine.crash_node c.eng l1;
  run_for c 2.0;
  (match current_leader c with
  | Some l2 -> Alcotest.(check bool) "different leader" true (l2 <> l1)
  | None -> Alcotest.fail "no new leader after crash");
  propose_values c [ "c" ];
  run_for c 1.0;
  (* Restart the old leader: it must catch up on everything. *)
  restart_replica c l1;
  run_for c 3.0;
  Alcotest.(check (list string))
    "restarted replica caught up" [ "a"; "b"; "c" ]
    (delivered_values c.ctxs.(l1))

let agreement_under_loss () =
  let c = mk_cluster ~seed:13 () in
  Net.set_drop_probability c.net 0.05;
  run_for c 2.0;
  let values = List.init 20 (fun i -> Printf.sprintf "x%d" i) in
  propose_values c values;
  Net.set_drop_probability c.net 0.;
  run_for c 3.0;
  (* All replicas must agree on a common prefix equal to the full list. *)
  List.iter
    (fun i ->
      let got = delivered_values c.ctxs.(i) in
      let expected_prefix = List.filteri (fun k _ -> k < List.length got) values in
      Alcotest.(check (list string))
        (Printf.sprintf "replica %d prefix agrees" i)
        expected_prefix got)
    c.nodes;
  (* And at least one replica (the leader's majority) has everything. *)
  let max_len =
    List.fold_left (fun m i -> max m (List.length (delivered_values c.ctxs.(i)))) 0 c.nodes
  in
  Alcotest.(check int) "all values committed somewhere" (List.length values) max_len

let partition_heals_catch_up () =
  let c = mk_cluster ~seed:21 () in
  run_for c 1.0;
  let l = Option.get (current_leader c) in
  let isolated = List.find (fun i -> i <> l) c.nodes in
  List.iter (fun i -> if i <> isolated then Net.partition c.net isolated i) c.nodes;
  propose_values c [ "p"; "q"; "r" ];
  Alcotest.(check (list string))
    "isolated replica saw nothing" []
    (delivered_values c.ctxs.(isolated));
  Net.heal_all c.net;
  run_for c 3.0;
  Alcotest.(check (list string))
    "isolated replica caught up after heal" [ "p"; "q"; "r" ]
    (delivered_values c.ctxs.(isolated))

let no_two_leaders_same_ballot () =
  (* Repeatedly crash and restart leaders; at no quiescent point may two
     alive replicas both believe they lead with the same ballot. *)
  let c = mk_cluster ~seed:31 () in
  run_for c 1.0;
  for round = 1 to 4 do
    (match current_leader c with
    | Some l ->
      Engine.crash_node c.eng l;
      run_for c 1.5;
      restart_replica c l;
      run_for c 1.5
    | None -> run_for c 1.0);
    let leaders =
      List.filter
        (fun i ->
          Engine.node_alive c.eng i && Paxos.Replica.is_leader c.ctxs.(i).rep)
        c.nodes
    in
    let ballots =
      List.map (fun i -> Paxos.Replica.current_ballot c.ctxs.(i).rep) leaders
    in
    let distinct = List.sort_uniq Paxos.Ballot.compare ballots in
    Alcotest.(check int)
      (Printf.sprintf "round %d: leader ballots distinct" round)
      (List.length ballots) (List.length distinct)
  done

let value_recovery_across_failover () =
  (* The chosen-value rule: if the old leader's value reached a majority of
     acceptors, the new leader must re-propose it, never replace it. *)
  let c = mk_cluster ~seed:43 () in
  run_for c 1.0;
  propose_values c [ "committed-1" ];
  let l = Option.get (current_leader c) in
  (* Propose but immediately isolate the leader so the accept may reach a
     subset of acceptors. *)
  Alcotest.(check bool) "proposed" true
    (Paxos.Replica.propose c.ctxs.(l).rep "maybe-chosen");
  List.iter (fun i -> if i <> l then Net.partition c.net l i) c.nodes;
  run_for c 0.5;
  Engine.crash_node c.eng l;
  Net.heal_all c.net;
  run_for c 3.0;
  propose_values c [ "after-failover" ];
  run_for c 1.0;
  (* Whatever happened, every replica's instance 2 must agree, and if
     "maybe-chosen" survived anywhere it is everywhere. *)
  let alive = List.filter (fun i -> Engine.node_alive c.eng i) c.nodes in
  let at_instance i inst =
    List.assoc_opt inst (List.map (fun (a, b) -> (a, b)) c.ctxs.(i).delivered)
  in
  let vals_i2 = List.filter_map (fun i -> at_instance i 2) alive in
  (match List.sort_uniq compare vals_i2 with
  | [] | [ _ ] -> ()
  | _ -> Alcotest.fail "replicas disagree at instance 2");
  Alcotest.(check bool) "progress resumed" true
    (List.exists
       (fun i -> List.mem "after-failover" (delivered_values c.ctxs.(i)))
       alive)

let ballot_ordering () =
  let open Paxos.Ballot in
  Alcotest.(check bool) "round dominates" true
    (compare { round = 2; replica = 0 } { round = 1; replica = 5 } > 0);
  Alcotest.(check bool) "replica ties" true
    (compare { round = 1; replica = 2 } { round = 1; replica = 1 } > 0);
  let b = next { round = 3; replica = 1 } ~me:0 in
  Alcotest.(check bool) "next is larger" true (compare b { round = 3; replica = 1 } > 0)

let msg_roundtrip () =
  let open Paxos in
  let msgs =
    [
      Msg.Prepare { ballot = { round = 3; replica = 1 } };
      Msg.Promise
        {
          ballot = { round = 3; replica = 1 };
          accepted = [ (7, { round = 2; replica = 0 }, "val") ];
          committed_upto = 6;
        };
      Msg.Nack { ballot = { round = 9; replica = 2 } };
      Msg.Accept
        {
          ballot = { round = 3; replica = 1 };
          instance = 7;
          value = "v";
          prior = [ (6, "u") ];
          commits = [ (5, { round = 3; replica = 1 }); (6, { round = 2; replica = 0 }) ];
        };
      Msg.Accepted { ballot = { round = 3; replica = 1 }; instance = 7 };
      Msg.Commit { instance = 7; ballot = { round = 3; replica = 1 } };
      Msg.Heartbeat
        { ballot = { round = 3; replica = 1 }; committed_upto = 7; hb_seq = 42 };
      Msg.Learn { from_instance = 4 };
      Msg.Learn_reply { entries = [ (4, "a"); (5, "b") ] };
      Msg.Lease_grant { ballot = { round = 3; replica = 1 }; hb_seq = 42 };
      Msg.Pre_vote { ballot = { round = 4; replica = 2 } };
      Msg.Pre_vote_reply { ballot = { round = 4; replica = 2 }; granted = true };
    ]
  in
  List.iter
    (fun m ->
      Alcotest.(check bool) "roundtrip" true (Msg.decode (Msg.encode m) = m))
    msgs

let store_basics () =
  let open Paxos in
  let st = Store.create () in
  Store.commit st 1 "a";
  Store.commit st 3 "c";
  Alcotest.(check int) "gap blocks upto" 1 (Store.committed_upto st);
  Store.commit st 2 "b";
  Alcotest.(check int) "contiguous" 3 (Store.committed_upto st);
  (match Store.commit st 2 "DIFFERENT" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "conflicting commit must be rejected");
  Store.set_accepted st 4 { round = 1; replica = 0 } "d";
  Alcotest.(check int) "accepted above" 1 (List.length (Store.accepted_above st 3));
  Store.truncate_below st 3;
  Alcotest.(check (option string)) "gc'd" None (Store.committed st 1);
  Alcotest.(check (option string)) "kept" (Some "c") (Store.committed st 3)

(* The dense store against the two-hashtable store it replaced, kept
   here as the model: commits out of order and below a truncation point,
   accepts, fast-forwards and truncations, with every query compared
   after each step. *)
module Store_model = struct
  type t = {
    acc : (int, Paxos.Ballot.t * string) Hashtbl.t;
    com : (int, string) Hashtbl.t;
    mutable upto : int;
    mutable max_c : int;
  }

  let create () =
    { acc = Hashtbl.create 16; com = Hashtbl.create 16; upto = 0; max_c = 0 }

  let advance t =
    while Hashtbl.mem t.com (t.upto + 1) do
      t.upto <- t.upto + 1
    done

  let commit t i v =
    (match Hashtbl.find_opt t.com i with
    | Some v' when v' <> v -> invalid_arg "conflict"
    | Some _ | None -> ());
    Hashtbl.replace t.com i v;
    if i > t.max_c then t.max_c <- i;
    advance t

  let fast_forward t i =
    if i > t.upto then begin
      t.upto <- i;
      if i > t.max_c then t.max_c <- i;
      advance t
    end

  let accepted_above t floor =
    Hashtbl.fold (fun i (b, v) acc -> if i > floor then (i, b, v) :: acc else acc) t.acc []
    |> List.sort (fun (i, _, _) (j, _, _) -> compare i j)

  let committed_range t ~from_i ~upto =
    List.filter_map
      (fun i -> Option.map (fun v -> (i, v)) (Hashtbl.find_opt t.com i))
      (List.init (max 0 (upto - from_i + 1)) (fun k -> from_i + k))

  let truncate_below t floor =
    Hashtbl.filter_map_inplace (fun i v -> if i < floor then None else Some v) t.acc;
    Hashtbl.filter_map_inplace (fun i v -> if i < floor then None else Some v) t.com
end

type store_op =
  | Commit of int * bool  (* instance, conflicting value *)
  | Accept of int * int  (* instance, ballot round *)
  | Fast_forward of int
  | Truncate of int

let show_store_op = function
  | Commit (i, c) -> Printf.sprintf "commit %d%s" i (if c then " (conflict)" else "")
  | Accept (i, r) -> Printf.sprintf "accept %d@%d" i r
  | Fast_forward i -> Printf.sprintf "fast_forward %d" i
  | Truncate i -> Printf.sprintf "truncate_below %d" i

let store_op_gen =
  let open QCheck.Gen in
  let inst = int_range 0 150 in
  frequency
    [
      (6, map2 (fun i c -> Commit (i, c = 0)) inst (int_bound 20));
      (4, map2 (fun i r -> Accept (i, r)) inst (int_range 1 3));
      (1, map (fun i -> Fast_forward i) inst);
      (1, map (fun i -> Truncate i) inst);
    ]

let prop_store_matches_model =
  QCheck.Test.make ~name:"dense Paxos store matches the hashtable model" ~count:300
    QCheck.(make ~print:(fun ops -> String.concat "; " (List.map show_store_op ops))
              Gen.(list_size (int_range 0 300) store_op_gen))
    (fun ops ->
      let open Paxos in
      let st = Store.create () and m = Store_model.create () in
      let value i conflict = if conflict then "x" ^ string_of_int i else "v" ^ string_of_int i in
      let outcome f = match f () with () -> true | exception Invalid_argument _ -> false in
      List.for_all
        (fun op ->
          let same_effect =
            match op with
            | Commit (i, c) ->
              outcome (fun () -> Store.commit st i (value i c))
              = outcome (fun () -> Store_model.commit m i (value i c))
            | Accept (i, round) ->
              let b = { Ballot.round; replica = 0 } in
              Store.set_accepted st i b (value i false);
              Hashtbl.replace m.acc i (b, value i false);
              true
            | Fast_forward i ->
              Store.fast_forward st i;
              Store_model.fast_forward m i;
              true
            | Truncate i ->
              Store.truncate_below st i;
              Store_model.truncate_below m i;
              true
          in
          same_effect
          && Store.committed_upto st = m.upto
          && Store.max_committed st = m.max_c
          && List.for_all
               (fun f -> Store.accepted_above st f = Store_model.accepted_above m f)
               [ -1; 0; m.upto; 75 ]
          && Store.committed_range st ~from_i:0 ~upto:160
             = Store_model.committed_range m ~from_i:0 ~upto:160
          && List.for_all
               (fun i ->
                 Store.committed st i = Hashtbl.find_opt m.com i
                 && Store.accepted st i = Hashtbl.find_opt m.acc i)
               (List.init 160 Fun.id))
        ops)

let suite =
  [
    Alcotest.test_case "ballot ordering" `Quick ballot_ordering;
    QCheck_alcotest.to_alcotest prop_store_matches_model;
    Alcotest.test_case "msg roundtrip" `Quick msg_roundtrip;
    Alcotest.test_case "store basics" `Quick store_basics;
    Alcotest.test_case "election: single leader" `Quick election_single_leader;
    Alcotest.test_case "commit in order" `Quick commit_in_order;
    Alcotest.test_case "failover + restart catch-up" `Quick failover_elects_new_leader;
    Alcotest.test_case "agreement under loss" `Quick agreement_under_loss;
    Alcotest.test_case "partition heal catch-up" `Quick partition_heals_catch_up;
    Alcotest.test_case "no two leaders same ballot" `Quick no_two_leaders_same_ballot;
    Alcotest.test_case "value recovery across failover" `Quick value_recovery_across_failover;
  ]

(* --- Pipelined proposals (§3.1 piggybacking) --- *)

let mk_pipelined_cluster ?(seed = 5) ?(n = 3) ~depth () =
  let eng = Engine.create ~seed ~cores_per_node:4 ~num_nodes:n () in
  let net = Net.create eng in
  let nodes = List.init n Fun.id in
  let ctxs =
    Array.init n (fun _ ->
        {
          rep = Obj.magic ();
          store = Paxos.Store.create ();
          delivered = [];
          became_leader = 0;
        })
  in
  let cluster = { eng; net; nodes; ctxs } in
  List.iter
    (fun i ->
      let cfg =
        Paxos.Replica.default_config ~max_inflight:depth ~me:i ~peers:nodes ()
      in
      ctxs.(i).rep <- mk_replica net cfg ctxs.(i).store ctxs.(i))
    nodes;
  cluster

let pipelined_commits_in_order () =
  let c = mk_pipelined_cluster ~seed:71 ~depth:4 () in
  run_for c 1.0;
  let l = Option.get (current_leader c) in
  let rep = c.ctxs.(l).rep in
  (* Fire proposals as fast as the window allows. *)
  let submitted = ref 0 in
  ignore
    (Engine.spawn c.eng ~node:l (fun () ->
         while !submitted < 40 do
           if Paxos.Replica.propose rep (Printf.sprintf "p%d" !submitted) then
             incr submitted
           else Engine.sleep 1e-4
         done));
  run_for c 5.0;
  List.iter
    (fun i ->
      Alcotest.(check (list string))
        (Printf.sprintf "replica %d ordered" i)
        (List.init 40 (fun k -> Printf.sprintf "p%d" k))
        (delivered_values c.ctxs.(i)))
    c.nodes;
  (* The pipeline really was deeper than one. *)
  Alcotest.(check bool) "window opened" true
    (Paxos.Replica.can_propose rep)

let pipelined_safe_across_failover () =
  let c = mk_pipelined_cluster ~seed:73 ~depth:4 () in
  run_for c 1.0;
  let l = Option.get (current_leader c) in
  let rep = c.ctxs.(l).rep in
  ignore
    (Engine.spawn c.eng ~node:l (fun () ->
         for i = 1 to 4 do
           ignore (Paxos.Replica.propose rep (Printf.sprintf "q%d" i))
         done));
  (* Kill the leader with proposals potentially in flight. *)
  run_for c 0.002;
  Engine.crash_node c.eng l;
  run_for c 3.0;
  propose_values c [ "after" ];
  run_for c 2.0;
  (* Whatever survived, all replicas agree on the same ordered prefix. *)
  let alive = List.filter (fun i -> Engine.node_alive c.eng i) c.nodes in
  let seqs = List.map (fun i -> delivered_values c.ctxs.(i)) alive in
  (match seqs with
  | s :: rest -> List.iter (fun s' -> Alcotest.(check (list string)) "agree" s s') rest
  | [] -> Alcotest.fail "no live replicas");
  Alcotest.(check bool) "progress after failover" true
    (List.exists (fun s -> List.mem "after" s) seqs)

let pipelined_no_holes_with_loss () =
  let c = mk_pipelined_cluster ~seed:79 ~depth:4 () in
  Net.set_drop_probability c.net 0.1;
  run_for c 2.0;
  (match current_leader c with
  | None -> run_for c 2.0
  | Some _ -> ());
  let l = Option.get (current_leader c) in
  let rep = c.ctxs.(l).rep in
  let submitted = ref 0 in
  ignore
    (Engine.spawn c.eng ~node:l (fun () ->
         while !submitted < 30 do
           if Paxos.Replica.propose rep (Printf.sprintf "z%d" !submitted) then
             incr submitted
           else Engine.sleep 2e-4
         done));
  run_for c 10.0;
  Net.set_drop_probability c.net 0.;
  run_for c 5.0;
  (* Deliveries must be gapless prefixes of z0..z29 on every replica. *)
  List.iter
    (fun i ->
      let got = delivered_values c.ctxs.(i) in
      List.iteri
        (fun k v ->
          Alcotest.(check string)
            (Printf.sprintf "replica %d position %d" i k)
            (Printf.sprintf "z%d" k) v)
        got)
    c.nodes

(* --- Reconfiguration: membership changes through the log --- *)

let pump_until c ~limit pred =
  let deadline = Engine.clock c.eng +. limit in
  let rec go () =
    if pred () then true
    else if Engine.clock c.eng >= deadline then false
    else begin
      run_for c 0.05;
      go ()
    end
  in
  go ()

let drive_reconfig c new_peers =
  let ok =
    pump_until c ~limit:30. (fun () ->
        match current_leader c with
        | Some l
          when List.sort_uniq compare (Paxos.Replica.peers c.ctxs.(l).rep)
               = List.sort_uniq compare new_peers ->
          true
        | Some l ->
          ignore (Paxos.Replica.propose_reconfig c.ctxs.(l).rep new_peers);
          false
        | None -> false)
  in
  Alcotest.(check bool) "reconfig committed" true ok

let reconfig_add_then_remove () =
  let c = mk_cluster ~seed:91 () in
  run_for c 1.0;
  propose_values c [ "a"; "b" ];
  (* Grow: commit [0;1;2;3], then bring up the newcomer. *)
  let n3 = Engine.add_node c.eng in
  Alcotest.(check int) "new node id" 3 n3;
  drive_reconfig c [ 0; 1; 2; 3 ];
  let ctx3 =
    { rep = Obj.magic (); store = Paxos.Store.create (); delivered = []; became_leader = 0 }
  in
  let cfg3 = Paxos.Replica.default_config ~me:3 ~peers:[ 0; 1; 2; 3 ] () in
  ctx3.rep <- mk_replica c.net cfg3 ctx3.store ctx3;
  let c = { c with nodes = c.nodes @ [ 3 ]; ctxs = Array.append c.ctxs [| ctx3 |] } in
  run_for c 2.0;
  propose_values c [ "c"; "d" ];
  run_for c 2.0;
  (* The newcomer caught up on the full history, config entries hidden. *)
  Alcotest.(check (list string)) "newcomer replays all"
    [ "a"; "b"; "c"; "d" ] (delivered_values ctx3);
  (* Shrink: retire replica 0; it demotes itself when the entry applies. *)
  drive_reconfig c [ 1; 2; 3 ];
  run_for c 2.0;
  Alcotest.(check bool) "retired replica left the group" false
    (Paxos.Replica.is_member c.ctxs.(0).rep);
  Engine.crash_node c.eng 0;
  run_for c 2.0;
  propose_values c [ "e" ];
  run_for c 2.0;
  List.iter
    (fun i ->
      Alcotest.(check (list string))
        (Printf.sprintf "replica %d sequence" i)
        [ "a"; "b"; "c"; "d"; "e" ]
        (delivered_values c.ctxs.(i)))
    [ 1; 2; 3 ]

let reconfig_rejects_bad_transitions () =
  let c = mk_cluster ~seed:93 () in
  ignore (Engine.add_node c.eng) (* node 3, target of the valid add *);
  run_for c 1.0;
  let l = Option.get (current_leader c) in
  let rep = c.ctxs.(l).rep in
  let try_cfg peers = Paxos.Replica.propose_reconfig rep peers in
  let fiber_result = ref None in
  ignore
    (Engine.spawn c.eng ~node:l (fun () ->
         fiber_result :=
           Some
             ( try_cfg [ 0; 1; 2 ] (* no change *),
               try_cfg [ 0; 1; 3; 4 ] (* two changes at once *),
               try_cfg [] (* empty *),
               try_cfg [ 0; 1; 2; 3 ] (* valid: single add *) )));
  run_for c 1.0;
  match !fiber_result with
  | None -> Alcotest.fail "driver did not run"
  | Some (same, double, empty, ok) ->
    Alcotest.(check bool) "identity rejected" false same;
    Alcotest.(check bool) "double change rejected" false double;
    Alcotest.(check bool) "empty rejected" false empty;
    Alcotest.(check bool) "single add accepted" true ok

let reconfig_survives_leader_crash () =
  let c = mk_cluster ~seed:97 () in
  run_for c 1.0;
  propose_values c [ "x" ];
  let l = Option.get (current_leader c) in
  (* Propose the config change, then kill the leader before pumping to
     commitment: the entry either survives via value recovery or is
     re-proposed by the driver against the new leader. *)
  ignore
    (Engine.spawn c.eng ~node:l (fun () ->
         ignore (Paxos.Replica.propose_reconfig c.ctxs.(l).rep [ 0; 1; 2; 3 ])));
  run_for c 0.002;
  Engine.crash_node c.eng l;
  (* Bring up the newcomer right away, as [Cluster.add_replica] does: if
     the entry committed before the crash the quorum is already 3-of-4
     and the group needs node 3 to make progress. *)
  let n3 = Engine.add_node c.eng in
  Alcotest.(check int) "new node id" 3 n3;
  let ctx3 =
    { rep = Obj.magic (); store = Paxos.Store.create (); delivered = []; became_leader = 0 }
  in
  let cfg3 = Paxos.Replica.default_config ~me:3 ~peers:[ 0; 1; 2; 3 ] () in
  ctx3.rep <- mk_replica c.net cfg3 ctx3.store ctx3;
  let c = { c with nodes = c.nodes @ [ 3 ]; ctxs = Array.append c.ctxs [| ctx3 |] } in
  let ok =
    pump_until c ~limit:30. (fun () ->
        match current_leader c with
        | Some l'
          when Paxos.Replica.peers c.ctxs.(l').rep = [ 0; 1; 2; 3 ] -> true
        | Some l' ->
          ignore (Paxos.Replica.propose_reconfig c.ctxs.(l').rep [ 0; 1; 2; 3 ]);
          false
        | None -> false)
  in
  Alcotest.(check bool) "config committed despite crash" true ok;
  (* Exactly one config entry took effect: survivors agree on membership. *)
  List.iter
    (fun i ->
      if Engine.node_alive c.eng i then
        Alcotest.(check (list int))
          (Printf.sprintf "replica %d membership" i)
          [ 0; 1; 2; 3 ]
          (List.sort compare (Paxos.Replica.peers c.ctxs.(i).rep)))
    c.nodes


(* A new leader recovering an instance commits it and hands it to
   [on_committed], which may park; meanwhile the replica can be deposed
   and campaign again.  When the callback returns, the replica must not
   take the lead on the strength of its first campaign: its second has
   no promise quorum yet, so it has not learned what the deposing leader
   committed.  Here replica [x] parks in its recovery commit; [y]
   deposes it and commits "w" while [x] is cut off from [y]; [y] dies
   and [x] campaigns again.  Whenever [x] later leads, its committed
   prefix must reach that of the live replicas that elected it. *)
let recovery_deliver_parks_across_recampaign () =
  let n = 5 in
  let eng = Engine.create ~seed:11 ~cores_per_node:4 ~num_nodes:n () in
  let net = Net.create eng in
  let nodes = List.init n Fun.id in
  let reps = Array.make n (Obj.magic ()) in
  let delivered = Array.make n [] in
  let armed = ref false and script = ref `Idle in
  let leads = ref [] (* (node, its committed prefix, live peers' max) *) in
  let alive_others i =
    List.filter (fun j -> j <> i && Engine.node_alive eng j) nodes
  in
  let rec poll ~until cond =
    if cond () then true
    else if Engine.clock eng >= until then false
    else begin
      Engine.sleep 2e-6;
      poll ~until cond
    end
  in
  (* Runs on [x]'s fiber, inside its recovery commit's [on_committed]. *)
  let park_through_recampaign x =
    let until = Engine.clock eng +. 2.0 in
    let b0 = Paxos.Replica.current_ballot reps.(x) in
    let deposer () =
      List.find_opt (fun j -> Paxos.Replica.is_leader reps.(j)) (alive_others x)
    in
    let ok =
      poll ~until (fun () ->
          Paxos.Ballot.compare (Paxos.Replica.current_ballot reps.(x)) b0 > 0
          && deposer () <> None)
    in
    match if ok then deposer () else None with
    | None -> script := `Failed "x was not deposed"
    | Some y ->
      let w_at = Paxos.Replica.next_instance reps.(y) in
      ignore (Paxos.Replica.propose reps.(y) "w");
      let x_accepted () =
        match Paxos.Store.accepted (Paxos.Replica.store reps.(x)) w_at with
        | Some (_, "w") -> true
        | Some _ | None -> false
      in
      if not (poll ~until x_accepted) then script := `Failed "x missed w"
      else begin
        (* [x] took the Accept: cut it off before the Commit. *)
        Net.partition net x y;
        let others_know () =
          List.for_all
            (fun j -> j = y || List.mem (w_at, "w") delivered.(j))
            (alive_others x)
        in
        if not (poll ~until others_know) then script := `Failed "w not committed"
        else begin
          Engine.crash_node eng y;
          (* The two others cannot elect each other: [x] is next. *)
          (match alive_others x with
          | [ a; b ] -> Net.partition net a b
          | _ -> ());
          let recampaigned () =
            let b = Paxos.Replica.current_ballot reps.(x) in
            b.Paxos.Ballot.replica = x && Paxos.Ballot.compare b b0 > 0
          in
          if not (poll ~until recampaigned) then
            script := `Failed "no second campaign"
          else if Paxos.Replica.committed_upto reps.(x) >= w_at then
            script := `Failed "x learned w's commit"
          else script := `Recampaigned
        end
      end
  in
  List.iter
    (fun i ->
      let cbs =
        {
          Paxos.Replica.on_committed =
            (fun inst v ->
              delivered.(i) <- (inst, v) :: delivered.(i);
              let b = Paxos.Replica.current_ballot reps.(i) in
              if !armed && !script = `Idle && b.Paxos.Ballot.replica = i
                 && not (Paxos.Replica.is_leader reps.(i))
              then begin
                script := `Running;
                park_through_recampaign i
              end);
          on_become_leader =
            (fun () ->
              let mine = Paxos.Replica.committed_upto reps.(i) in
              let theirs =
                List.fold_left
                  (fun m j -> max m (Paxos.Replica.committed_upto reps.(j)))
                  0 (alive_others i)
              in
              leads := (i, mine, theirs) :: !leads);
          on_new_leader = (fun _ -> ());
        }
      in
      let cfg = Paxos.Replica.default_config ~me:i ~peers:nodes () in
      reps.(i) <- Paxos.Replica.create net cfg (Paxos.Store.create ()) cbs;
      Paxos.Replica.start reps.(i))
    nodes;
  Engine.run ~until:1.0 eng;
  let l =
    match List.filter (fun i -> Paxos.Replica.is_leader reps.(i)) nodes with
    | [ l ] -> l
    | _ -> Alcotest.fail "no single first leader"
  in
  (* An Accept the followers take but whose commit no one sees: the next
     leader must recover it. *)
  Alcotest.(check bool) "proposed" true (Paxos.Replica.propose reps.(l) "v");
  Engine.crash_node eng l;
  armed := true;
  leads := [];
  Engine.run ~until:5.0 eng;
  (match !script with
  | `Recampaigned -> ()
  | `Failed why -> Alcotest.failf "scenario not reached: %s" why
  | `Idle | `Running -> Alcotest.fail "scenario not reached");
  List.iter
    (fun (i, mine, theirs) ->
      if mine < theirs then
        Alcotest.failf "replica %d led knowing instances up to %d, peers %d" i
          mine theirs)
    !leads;
  Alcotest.(check bool) "someone leads again" true (!leads <> []);
  (* No instance holds two values anywhere. *)
  let seen = Hashtbl.create 16 in
  Array.iter
    (List.iter (fun (inst, v) ->
         match Hashtbl.find_opt seen inst with
         | Some v' when v' <> v ->
           Alcotest.failf "instance %d delivered as %S and %S" inst v' v
         | Some _ -> ()
         | None -> Hashtbl.replace seen inst v))
    delivered

(* A Commit names an instance and a ballot, not the value.  A follower
   commits the value it accepted at that ballot; one that missed the
   Accept, or accepted at another ballot, does nothing, and learns the
   value by catch-up once a heartbeat shows it behind.  Node 0 plays the
   leader by hand; node 1 is the follower under test. *)
let commit_without_accept_is_learned () =
  let eng = Engine.create ~seed:5 ~num_nodes:2 () in
  let net = Net.create eng in
  let port = Net.port "paxos" in
  let sent = ref [] in
  Net.register net ~node:0 ~port (fun ~src:_ payload ->
      sent := Paxos.Msg.decode payload :: !sent);
  let ctx =
    { rep = Obj.magic (); store = Paxos.Store.create (); delivered = []; became_leader = 0 }
  in
  ctx.rep <-
    mk_replica net (Paxos.Replica.default_config ~me:1 ~peers:[ 0; 1 ] ()) ctx.store ctx;
  let b = { Paxos.Ballot.round = 1; replica = 0 } in
  let b' = { Paxos.Ballot.round = 2; replica = 0 } in
  let step msg =
    Net.send net ~src:0 ~dst:1 ~port (Paxos.Msg.encode msg);
    Engine.run ~until:(Engine.clock eng +. 1e-3) eng
  in
  let committed () = Paxos.Replica.committed_upto ctx.rep in
  step (Paxos.Msg.Accept { ballot = b; instance = 1; value = "a"; prior = []; commits = [] });
  step (Paxos.Msg.Commit { instance = 1; ballot = b });
  Alcotest.(check (list (pair int string))) "accepted value committed"
    [ (1, "a") ] ctx.delivered;
  (* Instance 2's Accept is lost. *)
  step (Paxos.Msg.Commit { instance = 2; ballot = b });
  Alcotest.(check int) "no value, no commit" 1 (committed ());
  (* Instance 2 accepted at [b], committed at [b']: not the same value. *)
  step (Paxos.Msg.Accept { ballot = b; instance = 2; value = "b"; prior = []; commits = [] });
  step (Paxos.Msg.Commit { instance = 2; ballot = b' });
  Alcotest.(check int) "other ballot, no commit" 1 (committed ());
  sent := [];
  step (Paxos.Msg.Heartbeat { ballot = b; committed_upto = 2; hb_seq = 1 });
  Alcotest.(check bool) "behind: asks to learn from 2" true
    (List.exists
       (function Paxos.Msg.Learn { from_instance = 2 } -> true | _ -> false)
       !sent);
  step (Paxos.Msg.Learn_reply { entries = [ (2, "b") ] });
  Alcotest.(check (list (pair int string))) "learned by catch-up"
    [ (2, "b"); (1, "a") ] ctx.delivered

(* --- Commit notices: a commit rides the next Accept --- *)

(* Nodes 0 and 1 run Paxos; node 2 only records what reaches it on the
   Paxos port, so the leader's messages can be counted.  Whenever the
   leader commits one of its values, its [on_committed] proposes the next
   ones of [values], up to [depth] open instances, in the same handler
   run. *)
let chained_cluster ~seed ~depth values =
  let eng = Engine.create ~seed ~cores_per_node:4 ~num_nodes:3 () in
  let net = Net.create eng in
  let port = Net.port "paxos" in
  let seen = ref [] in
  Net.register net ~node:2 ~port (fun ~src:_ payload ->
      seen := Paxos.Msg.decode payload :: !seen);
  let reps = Array.make 2 (Obj.magic ()) in
  let delivered = Array.make 2 [] in
  let queue = Queue.of_seq (List.to_seq values) in
  let propose_queued r =
    while
      (not (Queue.is_empty queue))
      && Paxos.Replica.can_propose r
      && Paxos.Replica.propose r (Queue.peek queue)
    do
      ignore (Queue.pop queue)
    done
  in
  for i = 0 to 1 do
    let cbs =
      {
        Paxos.Replica.on_committed =
          (fun inst v ->
            delivered.(i) <- (inst, v) :: delivered.(i);
            if Paxos.Replica.is_leader reps.(i) then propose_queued reps.(i));
        on_become_leader = (fun () -> ());
        on_new_leader = (fun _ -> ());
      }
    in
    let cfg =
      Paxos.Replica.default_config ~max_inflight:depth ~me:i ~peers:[ 0; 1; 2 ] ()
    in
    reps.(i) <- Paxos.Replica.create net cfg (Paxos.Store.create ()) cbs;
    Paxos.Replica.start reps.(i)
  done;
  Engine.run ~until:1.0 eng;
  let l =
    match List.filter (fun i -> Paxos.Replica.is_leader reps.(i)) [ 0; 1 ] with
    | [ l ] -> l
    | _ -> Alcotest.fail "no single leader"
  in
  seen := [];
  ignore (Engine.spawn eng ~node:l (fun () -> propose_queued reps.(l)));
  Engine.run ~until:(Engine.clock eng +. 0.05) eng;
  (l, delivered, List.rev !seen)

let commits_seen seen =
  List.filter_map
    (function Paxos.Msg.Commit { instance; _ } -> Some instance | _ -> None)
    seen

let notices_seen seen =
  List.concat_map
    (function
      | Paxos.Msg.Accept { commits; _ } -> List.map fst commits | _ -> [])
    seen

(* Each commit but the last opens the next instance in the same handler
   run: its notice rides that Accept and no Commit goes out.  The last
   commit has nothing queued behind it and still sends a Commit. *)
let commit_rides_next_accept () =
  let values = List.init 5 (Printf.sprintf "c%d") in
  let l, delivered, seen = chained_cluster ~seed:5 ~depth:1 values in
  let instances = List.map fst (List.rev delivered.(l)) in
  Alcotest.(check (list string)) "leader delivered" values
    (List.map snd (List.rev delivered.(l)));
  let last = List.nth instances 4 in
  Alcotest.(check (list int)) "one Commit, for the last instance" [ last ]
    (commits_seen seen);
  Alcotest.(check (list int)) "the others rode on Accepts"
    (List.filteri (fun k _ -> k < 4) instances)
    (notices_seen seen);
  Alcotest.(check (list (pair int string))) "the follower learned them all"
    (List.rev delivered.(l)) (List.rev delivered.(1 - l))

(* At depth 2 an Accept may open while the other instance is still in
   flight: whatever rides where, every instance reaches the followers. *)
let pipelined_notices_reach_followers () =
  let values = List.init 12 (Printf.sprintf "d%d") in
  let l, delivered, seen = chained_cluster ~seed:9 ~depth:2 values in
  let committed = List.rev delivered.(l) in
  Alcotest.(check (list string)) "leader delivered" values (List.map snd committed);
  Alcotest.(check (list (pair int string))) "the follower learned them all"
    committed (List.rev delivered.(1 - l));
  Alcotest.(check (list int)) "node 2 was told of every commit exactly once"
    (List.map fst committed)
    (List.sort compare (commits_seen seen @ notices_seen seen));
  Alcotest.(check bool) "some rode on Accepts" true (notices_seen seen <> [])

(* A notice is read as a Commit: it commits the value the follower
   accepted at the notice's ballot, before the Accept's own value is
   taken, and is ignored where the follower holds another ballot.
   Node 0 plays the leader by hand; node 1 is the follower under test. *)
let notice_needs_matching_ballot () =
  let eng = Engine.create ~seed:5 ~num_nodes:2 () in
  let net = Net.create eng in
  let port = Net.port "paxos" in
  Net.register net ~node:0 ~port (fun ~src:_ _ -> ());
  let ctx =
    { rep = Obj.magic (); store = Paxos.Store.create (); delivered = []; became_leader = 0 }
  in
  ctx.rep <-
    mk_replica net (Paxos.Replica.default_config ~me:1 ~peers:[ 0; 1 ] ()) ctx.store ctx;
  let b = { Paxos.Ballot.round = 1; replica = 0 } in
  let b' = { Paxos.Ballot.round = 2; replica = 0 } in
  let step msg =
    Net.send net ~src:0 ~dst:1 ~port (Paxos.Msg.encode msg);
    Engine.run ~until:(Engine.clock eng +. 1e-3) eng
  in
  let accept ?(commits = []) instance value =
    step (Paxos.Msg.Accept { ballot = b; instance; value; prior = []; commits })
  in
  accept 1 "a";
  accept 2 "b" ~commits:[ (1, b) ];
  Alcotest.(check (list (pair int string))) "instance 1 committed by notice"
    [ (1, "a") ] ctx.delivered;
  accept 3 "c" ~commits:[ (2, b') ];
  Alcotest.(check int) "other ballot: notice ignored" 1
    (Paxos.Replica.committed_upto ctx.rep);
  Alcotest.(check bool) "the Accept itself was taken" true
    (Paxos.Store.accepted ctx.store 3 = Some (b, "c"));
  accept 4 "d" ~commits:[ (2, b); (3, b) ];
  Alcotest.(check (list (pair int string))) "two notices on one Accept"
    [ (3, "c"); (2, "b"); (1, "a") ] ctx.delivered

let suite =
  suite
  @ [
      Alcotest.test_case "pipelined commits in order" `Quick pipelined_commits_in_order;
      Alcotest.test_case "pipelined safe across failover" `Quick pipelined_safe_across_failover;
      Alcotest.test_case "pipelined no holes under loss" `Quick pipelined_no_holes_with_loss;
      Alcotest.test_case "reconfig: add then remove" `Quick reconfig_add_then_remove;
      Alcotest.test_case "reconfig: invalid transitions" `Quick reconfig_rejects_bad_transitions;
      Alcotest.test_case "reconfig: survives leader crash" `Quick reconfig_survives_leader_crash;
      Alcotest.test_case "recovery deliver parks across a re-campaign" `Quick
        recovery_deliver_parks_across_recampaign;
      Alcotest.test_case "value-less commit: missed Accept is learned" `Quick
        commit_without_accept_is_learned;
      Alcotest.test_case "commit notice rides the next Accept" `Quick
        commit_rides_next_accept;
      Alcotest.test_case "commit notices at pipeline depth 2" `Quick
        pipelined_notices_reach_followers;
      Alcotest.test_case "commit notice needs the accepted ballot" `Quick
        notice_needs_matching_ballot;
    ]
