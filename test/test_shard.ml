(* Tests for lib/shard: the consistent-hash map (unit + qcheck
   properties for balance and minimal remapping), the routing client
   under scripted leader changes, scatter-gather partial failure, and a
   small two-group fleet driven end to end through a shard failover. *)

open Sim
module R = Rex_core
module Map_ = Shard.Shard_map
module Router = Shard.Router
module Fleet = Shard.Fleet

let keys ?(salt = 0) n = List.init n (fun i -> Printf.sprintf "key%d-%d" salt i)

(* --- Shard_map unit tests --- *)

let test_map_basics () =
  let m = Map_.create ~groups:[ 2; 0; 1; 1 ] () in
  Alcotest.(check (list int)) "groups sorted+distinct" [ 0; 1; 2 ] (Map_.groups m);
  Alcotest.(check int) "epoch" 0 (Map_.epoch m);
  Alcotest.(check int) "ring honors vnodes" (3 * 64) (Map_.ring_size m);
  let m96 = Map_.create ~vnodes:96 ~groups:[ 0; 1 ] () in
  Alcotest.(check int) "custom vnodes" (2 * 96) (Map_.ring_size m96);
  List.iter
    (fun k ->
      let g = Map_.group_of m k in
      Alcotest.(check bool) "maps to a member" true (Map_.contains m g);
      Alcotest.(check int) "deterministic" g (Map_.group_of m k))
    (keys 500);
  let shares = Map_.shares m (keys 500) in
  Alcotest.(check int) "shares sum to key count" 500
    (List.fold_left (fun a (_, c) -> a + c) 0 shares)

let test_map_membership () =
  let m = Map_.create ~groups:[ 0; 1 ] () in
  let m' = Map_.add_group m 5 in
  Alcotest.(check int) "epoch bumped" 1 (Map_.epoch m');
  Alcotest.(check (list int)) "member added" [ 0; 1; 5 ] (Map_.groups m');
  Alcotest.(check bool) "original untouched" false (Map_.contains m 5);
  let m'' = Map_.remove_group m' 0 in
  Alcotest.(check int) "epoch bumped again" 2 (Map_.epoch m'');
  Alcotest.(check (list int)) "member removed" [ 1; 5 ] (Map_.groups m'');
  Alcotest.check_raises "adding an existing group"
    (Invalid_argument "Shard_map.add_group: group exists") (fun () ->
      ignore (Map_.add_group m 1));
  Alcotest.check_raises "removing the last group"
    (Invalid_argument "Shard_map.remove_group: last group") (fun () ->
      ignore (Map_.remove_group (Map_.create ~groups:[ 3 ] ()) 3))

(* --- QCheck properties --- *)

(* With v vnodes per group the share of each group concentrates around
   1/n with relative deviation ~1/sqrt(v); 64 vnodes keep max/mean
   comfortably under 1.6 for up to 8 groups. *)
let prop_balanced =
  QCheck.Test.make ~name:"ring balanced within tolerance" ~count:30
    QCheck.(pair (int_range 1 8) small_int)
    (fun (n, salt) ->
      let m = Map_.create ~groups:(List.init n Fun.id) () in
      let ks = keys ~salt 4000 in
      let shares = Map_.shares m ks in
      let mean = 4000. /. float_of_int n in
      List.for_all (fun (_, c) -> float_of_int c <= 1.6 *. mean) shares)

let prop_minimal_remap_add =
  QCheck.Test.make ~name:"add_group remaps only to the new group, ~1/(n+1)"
    ~count:30
    QCheck.(pair (int_range 1 8) small_int)
    (fun (n, salt) ->
      let m = Map_.create ~groups:(List.init n Fun.id) () in
      let m' = Map_.add_group m n in
      let ks = keys ~salt 3000 in
      let moved =
        List.filter (fun k -> Map_.group_of m k <> Map_.group_of m' k) ks
      in
      (* exact: a key may only move to the newcomer *)
      List.for_all (fun k -> Map_.group_of m' k = n) moved
      (* statistical: the newcomer steals about its fair share *)
      && float_of_int (List.length moved)
         <= (2.5 /. float_of_int (n + 1) *. 3000.) +. 60.)

let prop_minimal_remap_remove =
  QCheck.Test.make ~name:"remove_group remaps only the removed group's keys"
    ~count:30
    QCheck.(pair (int_range 2 8) small_int)
    (fun (n, salt) ->
      let m = Map_.create ~groups:(List.init n Fun.id) () in
      let victim = n / 2 in
      let m' = Map_.remove_group m victim in
      keys ~salt 3000
      |> List.for_all (fun k ->
             let before = Map_.group_of m k in
             let after = Map_.group_of m' k in
             if before = victim then after <> victim else after = before))

(* --- Router under scripted leader changes --- *)

(* Three fake replicas whose leadership is a mutable cell: followers
   answer [Not_leader (Some leader)], the leader echoes the request.
   Node [-1] means "no leader anywhere" (everyone redirects with no
   hint); a crashed node times out instead. *)
(* The router wraps requests in session envelopes; fake replicas unwrap
   to echo the logical payload like a real frontend would. *)
let payload_of req =
  match R.Session.Envelope.decode req with
  | Some e -> e.R.Session.Envelope.payload
  | None -> req

let make_scripted_group () =
  let eng = Engine.create ~seed:11 ~num_nodes:4 () in
  let net = Net.create eng in
  let rpc = Rpc.create net in
  let leader = ref 0 in
  for node = 0 to 2 do
    Rpc.serve rpc ~node ~port:R.Client.client_port (fun ~src:_ req ->
        R.Client.encode_reply
          (if !leader = node then R.Client.Ok_reply ("done:" ^ payload_of req)
           else R.Client.Not_leader (if !leader < 0 then None else Some !leader)))
  done;
  let map = Map_.create ~groups:[ 0 ] () in
  let router = Router.create net rpc ~me:3 ~map ~groups:[ (0, [ 0; 1; 2 ]) ] in
  (eng, router, leader)

let in_fiber eng f =
  let result = ref None in
  ignore (Engine.spawn eng ~node:3 (fun () -> result := Some (f ())));
  Engine.run ~until:(Engine.clock eng +. 30.) eng;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "fiber did not finish"

let test_router_redirects () =
  let eng, router, leader = make_scripted_group () in
  let reply = in_fiber eng (fun () -> Router.call router ~key:"a" "R1") in
  Alcotest.(check (option string)) "direct hit" (Some "done:R1") reply;
  Alcotest.(check int) "no redirects yet" 0 (Router.stats router).Router.redirects;
  (* leadership moves: the stale hint gets one redirect, then sticks *)
  leader := 2;
  let reply = in_fiber eng (fun () -> Router.call router ~key:"a" "R2") in
  Alcotest.(check (option string)) "after redirect" (Some "done:R2") reply;
  Alcotest.(check int) "one redirect" 1 (Router.stats router).Router.redirects;
  Alcotest.(check int) "hint refreshed" 2 (Router.leader_hint router ~group:0);
  let reply = in_fiber eng (fun () -> Router.call router ~key:"a" "R3") in
  Alcotest.(check (option string)) "hint reused" (Some "done:R3") reply;
  Alcotest.(check int) "still one redirect" 1
    (Router.stats router).Router.redirects

let test_router_retries_dead_node () =
  let eng, router, leader = make_scripted_group () in
  ignore (in_fiber eng (fun () -> Router.call router ~key:"a" "warm"));
  (* the believed leader dies; a new one is elected elsewhere *)
  leader := 1;
  Engine.crash_node eng 0;
  let reply =
    in_fiber eng (fun () -> Router.call router ~timeout:0.02 ~key:"a" "R")
  in
  Alcotest.(check (option string)) "failed over" (Some "done:R") reply;
  Alcotest.(check bool) "timeout counted as retry" true
    ((Router.stats router).Router.retries >= 1);
  Alcotest.(check int) "hint left the dead node" 1
    (Router.leader_hint router ~group:0)

let test_router_gives_up () =
  let eng, router, leader = make_scripted_group () in
  leader := -1;
  let reply =
    in_fiber eng (fun () -> Router.call router ~retries:3 ~key:"a" "R")
  in
  Alcotest.(check (option string)) "exhausted retries" None reply;
  Alcotest.(check int) "failure counted" 1 (Router.stats router).Router.failures;
  leader := 1;
  let reply = in_fiber eng (fun () -> Router.call router ~key:"a" "R2") in
  Alcotest.(check (option string)) "recovers afterwards" (Some "done:R2") reply

(* --- Scatter-gather with a dead group --- *)

let test_multi_call_partial_failure () =
  let eng = Engine.create ~seed:13 ~num_nodes:7 () in
  let net = Net.create eng in
  let rpc = Rpc.create net in
  (* group 0 (nodes 0-2) healthy with node 0 leading; group 1 (nodes
     3-5) never answers *)
  for node = 0 to 2 do
    Rpc.serve rpc ~node ~port:R.Client.client_port (fun ~src:_ req ->
        R.Client.encode_reply
          (if node = 0 then R.Client.Ok_reply ("done:" ^ payload_of req)
           else R.Client.Not_leader (Some 0)))
  done;
  let map = Map_.create ~groups:[ 0; 1 ] () in
  let router =
    Router.create net rpc ~me:6 ~map
      ~groups:[ (0, [ 0; 1; 2 ]); (1, [ 3; 4; 5 ]) ]
  in
  let key_in ?(avoid = []) g =
    let rec go i =
      let k = Printf.sprintf "k%d" i in
      if Router.group_of router k = g && not (List.mem k avoid) then k
      else go (i + 1)
    in
    go 0
  in
  let k0 = key_in 0 in
  let k0' = key_in ~avoid:[ k0 ] 0 in
  let k1 = key_in 1 in
  let batch = [ (k0, "A"); (k1, "B"); (k0', "C") ] in
  let result = ref None in
  ignore
    (Engine.spawn eng ~node:6 (fun () ->
         result := Some (Router.multi_call ~retries:2 ~timeout:0.02 router batch)));
  Engine.run ~until:5.0 eng;
  match !result with
  | None -> Alcotest.fail "multi_call did not finish"
  | Some m ->
    Alcotest.(check bool) "not all ok" false (Router.multi_ok m);
    Alcotest.(check (list int)) "dead group reported" [ 1 ] m.Router.failed_groups;
    Alcotest.(check int) "input order kept" 3 (Array.length m.Router.outcomes);
    let outcome k =
      let _, o = Array.to_list m.Router.outcomes |> List.find (fun (k', _) -> k' = k) in
      o
    in
    (match outcome k0 with
    | Router.Reply r -> Alcotest.(check string) "g0 first reply" "done:A" r
    | Router.Failed _ -> Alcotest.fail "g0 key failed");
    (match outcome k0' with
    | Router.Reply r -> Alcotest.(check string) "g0 second reply" "done:C" r
    | Router.Failed _ -> Alcotest.fail "g0 key failed");
    match outcome k1 with
    | Router.Failed { group } -> Alcotest.(check int) "g1 key failed" 1 group
    | Router.Reply _ -> Alcotest.fail "dead group replied"

(* --- A stuck group holds no other group's calls --- *)

(* More calls than a reply window stuck on a silent group must not park
   a call to a healthy one: each group is its own session, whose seqs
   the window bounds. *)
let test_stuck_group_holds_no_other () =
  let eng = Engine.create ~seed:17 ~num_nodes:7 () in
  let net = Net.create eng in
  let rpc = Rpc.create net in
  (* group 0 (nodes 0-2) never answers; group 1 (nodes 3-5) does *)
  for node = 3 to 5 do
    Rpc.serve rpc ~node ~port:R.Client.client_port (fun ~src:_ req ->
        R.Client.encode_reply
          (if node = 3 then R.Client.Ok_reply ("done:" ^ payload_of req)
           else R.Client.Not_leader (Some 3)))
  done;
  let router =
    Router.create net rpc ~me:6 ~map:(Map_.create ~groups:[ 0; 1 ] ())
      ~groups:[ (0, [ 0; 1; 2 ]); (1, [ 3; 4; 5 ]) ]
  in
  let stuck = R.Session.Table.default_window + 6 in
  for _ = 1 to stuck do
    ignore
      (Engine.spawn eng ~node:6 (fun () ->
           ignore (Router.call_group ~retries:2 ~timeout:0.5 router ~group:0 "S")))
  done;
  let reply = ref None and took = ref infinity in
  ignore
    (Engine.spawn eng ~node:6 (fun () ->
         let t0 = Engine.clock eng in
         reply := Router.call_group router ~group:1 "F";
         took := Engine.clock eng -. t0));
  Engine.run ~until:5.0 eng;
  Alcotest.(check (option string)) "healthy group answers" (Some "done:F") !reply;
  Alcotest.(check bool) "without waiting for the stuck group" true (!took < 0.01)

(* --- Two-group fleet end to end, through a shard failover --- *)

let test_fleet_failover () =
  let fleet =
    Fleet.create ~seed:19 ~groups:2 (fun ~map ~group ->
        Shard.Partition.factory ~map ~group (Apps.Memcache.factory ()))
  in
  let eng = Fleet.engine fleet in
  Fleet.start fleet;
  Fleet.await_primaries fleet;
  let router = Fleet.router fleet in
  let n = 400 in
  let completed = ref 0 and failed = ref 0 and launched = ref 0 in
  let gen = Workload.Mix.kv_keyed ~n_keys:500 ~read_ratio:0.0 () in
  let rng = Rng.create 3 in
  for _ = 1 to 8 do
    ignore
      (Engine.spawn eng ~node:(Fleet.client_node fleet) (fun () ->
           while !launched < n do
             incr launched;
             let key, request = gen rng in
             match Router.call router ~key request with
             | Some _ -> incr completed
             | None -> incr failed
           done))
  done;
  (* kill group 1's primary mid-run; the router must ride through *)
  let killed = ref None in
  ignore
    (Engine.spawn eng ~node:(Fleet.client_node fleet) (fun () ->
         while !completed < n / 2 do
           Engine.sleep 0.01
         done;
         killed := Fleet.crash_primary fleet 1));
  let deadline = Engine.clock eng +. 120. in
  while !completed + !failed < n && Engine.clock eng < deadline do
    Engine.run ~until:(Engine.clock eng +. 0.5) eng
  done;
  Alcotest.(check bool) "a primary was killed" true (!killed <> None);
  Alcotest.(check int) "every request answered" n (!completed + !failed);
  Alcotest.(check int) "no request lost to the failover" n !completed;
  Alcotest.(check bool) "both groups committed" true
    (Fleet.replies fleet 0 > 0 && Fleet.replies fleet 1 > 0);
  Fleet.run_for fleet 2.0;
  Fleet.check_no_divergence fleet;
  Alcotest.(check bool) "every group converged" true (Fleet.converged fleet);
  (* the partition adapter rejects a key routed to the wrong group *)
  let wrong_key =
    let rec go i =
      let k = Printf.sprintf "wk%d" i in
      if Router.group_of router k = 1 then k else go (i + 1)
    in
    go 0
  in
  let reply = ref None in
  ignore
    (Engine.spawn eng ~node:(Fleet.client_node fleet) (fun () ->
         reply :=
           Router.call_group router ~group:0 (Printf.sprintf "SET %s v" wrong_key)));
  Fleet.run_for fleet 5.0;
  (* the rejection carries the responder's map spec for router refresh *)
  (match !reply with
  | Some resp -> (
    match Shard.Partition.classify resp with
    | `Wrong_shard (Some m) ->
      Alcotest.(check int) "redirect spec epoch" 0 (Shard.Shard_map.epoch m)
    | `Wrong_shard None -> Alcotest.fail "wrong-shard reply lost its spec"
    | `Migrating _ | `App -> Alcotest.fail ("unexpected reply: " ^ resp))
  | None -> Alcotest.fail "misrouted request got no reply")

(* --- Live split and merge under traffic --- *)

let test_live_split_merge () =
  let fleet =
    Fleet.create ~seed:23 ~groups:2 (fun ~map ~group ->
        Shard.Partition.factory ~map ~group (Apps.Memcache.factory ()))
  in
  let eng = Fleet.engine fleet in
  Fleet.start fleet;
  Fleet.await_primaries fleet;
  let router = Fleet.router fleet in
  (* Seed keys the traffic never rewrites: after split + merge they must
     still read their original values, proving both migrations carried
     the data. *)
  let n_stable = 40 in
  let stable k = Printf.sprintf "stable%d" k in
  let seeded = ref 0 in
  ignore
    (Engine.spawn eng ~node:(Fleet.client_node fleet) (fun () ->
         for k = 0 to n_stable - 1 do
           (match
              Router.call router ~key:(stable k)
                (Printf.sprintf "SET %s v%d" (stable k) k)
            with
           | Some "STORED" -> incr seeded
           | Some other -> Alcotest.fail ("seed SET replied " ^ other)
           | None -> Alcotest.fail "seed SET timed out")
         done));
  let deadline = Engine.clock eng +. 60. in
  while !seeded < n_stable && Engine.clock eng < deadline do
    Fleet.run_for fleet 0.5
  done;
  Alcotest.(check int) "all stable keys seeded" n_stable !seeded;
  (* continuous keyed traffic across both topology changes *)
  let n = 400 in
  let completed = ref 0 and failed = ref 0 and launched = ref 0 in
  let gen = Workload.Mix.kv_keyed ~n_keys:300 ~read_ratio:0.2 () in
  let rng = Rng.create 5 in
  for _ = 1 to 8 do
    ignore
      (Engine.spawn eng ~node:(Fleet.client_node fleet) (fun () ->
           while !launched < n do
             incr launched;
             let key, request = gen rng in
             match Router.call router ~key request with
             | Some _ -> incr completed
             | None -> incr failed
           done))
  done;
  let pump_until target =
    let deadline = Engine.clock eng +. 120. in
    while !completed + !failed < target && Engine.clock eng < deadline do
      Fleet.run_for fleet 0.2
    done
  in
  pump_until (n / 4);
  (* split while the traffic fibers are mid-flight *)
  let g = Fleet.split fleet in
  Alcotest.(check int) "split created group 2" 2 g;
  Alcotest.(check int) "epoch after split" 1 (Map_.epoch (Fleet.map fleet));
  Alcotest.(check (list int)) "split joins the map" [ 0; 1; 2 ]
    (Fleet.active_groups fleet);
  pump_until (n / 2);
  (* and merge it back out, still under traffic *)
  Fleet.merge fleet g;
  Alcotest.(check int) "epoch after merge" 2 (Map_.epoch (Fleet.map fleet));
  Alcotest.(check (list int)) "merge leaves the map" [ 0; 1 ]
    (Fleet.active_groups fleet);
  pump_until n;
  Alcotest.(check int) "every request answered" n (!completed + !failed);
  Alcotest.(check int) "no request lost to the migrations" n !completed;
  (* the seeded keys survived the round trip *)
  let checked = ref 0 in
  ignore
    (Engine.spawn eng ~node:(Fleet.client_node fleet) (fun () ->
         for k = 0 to n_stable - 1 do
           (match
              Router.call router ~key:(stable k)
                (Printf.sprintf "GET %s" (stable k))
            with
           | Some v ->
             Alcotest.(check string)
               (Printf.sprintf "stable%d survives split+merge" k)
               (Printf.sprintf "v%d" k) v;
             incr checked
           | None -> Alcotest.fail "readback timed out")
         done));
  let deadline = Engine.clock eng +. 60. in
  while !checked < n_stable && Engine.clock eng < deadline do
    Fleet.run_for fleet 0.5
  done;
  Alcotest.(check int) "all stable keys read back" n_stable !checked;
  Fleet.run_for fleet 2.0;
  Fleet.check_no_divergence fleet;
  Alcotest.(check bool) "every group converged" true (Fleet.converged fleet);
  let obs = Engine.obs eng in
  Alcotest.(check int) "two migrations recorded" 2
    (Obs.Metric.value (Obs.counter obs ~subsystem:"shard" "migrations"));
  Alcotest.(check bool) "migrated keys counted" true
    (Obs.Metric.value (Obs.counter obs ~subsystem:"shard" "migrated_keys") > 0)

(* --- Epoch-transition properties --- *)

let prop_epochs_monotone =
  QCheck.Test.make ~name:"membership changes bump the epoch by exactly 1"
    ~count:50
    QCheck.(list_of_size Gen.(int_range 1 12) (int_range 0 1))
    (fun steps ->
      let next = ref 2 in
      let m = ref (Map_.create ~groups:[ 0; 1 ] ()) in
      List.for_all
        (fun step ->
          let before = Map_.epoch !m in
          (match step with
          | 0 ->
            m := Map_.add_group !m !next;
            incr next
          | _ ->
            (* keep at least two groups so remove never hits "last group" *)
            if List.length (Map_.groups !m) > 2 then
              m := Map_.remove_group !m (List.hd (Map_.groups !m))
            else begin
              m := Map_.add_group !m !next;
              incr next
            end);
          Map_.epoch !m = before + 1)
        steps)

let prop_split_merge_roundtrip =
  QCheck.Test.make
    ~name:"add_group then remove_group restores every key's owner" ~count:30
    QCheck.(pair (int_range 1 6) small_int)
    (fun (n, salt) ->
      let m = Map_.create ~groups:(List.init n Fun.id) () in
      let m' = Map_.remove_group (Map_.add_group m n) n in
      Map_.epoch m' = Map_.epoch m + 2
      && keys ~salt 2000
         |> List.for_all (fun k -> Map_.group_of m k = Map_.group_of m' k))

let prop_spec_roundtrip =
  QCheck.Test.make ~name:"encode_spec / decode_spec round-trips the map"
    ~count:50
    QCheck.(pair (int_range 1 8) (int_range 1 128))
    (fun (n, vnodes) ->
      let m0 = Map_.create ~vnodes ~groups:(List.init n (fun i -> 3 * i)) () in
      (* push the epoch up so it is exercised too *)
      let m = Map_.remove_group (Map_.add_group m0 100) 100 in
      match Map_.decode_spec (Map_.encode_spec m) with
      | None -> false
      | Some m' ->
        Map_.epoch m' = Map_.epoch m
        && Map_.groups m' = Map_.groups m
        && Map_.ring_size m' = Map_.ring_size m
        && keys 500 |> List.for_all (fun k -> Map_.group_of m' k = Map_.group_of m k))

(* Specs arrive on every shard reply, so [decode_spec] (through
   [Partition.classify]) must turn truncated and hostile ones into
   [None], never an exception and never a ring past [max_ring] points:
   "e0v1000000000g0" would otherwise build a 10^9-point ring. *)
let hostile_spec =
  let open QCheck.Gen in
  let real =
    map2
      (fun n vnodes ->
        Map_.encode_spec
          (Map_.create ~vnodes ~groups:(List.init n (fun i -> 3 * i)) ()))
      (int_range 1 8) (int_range 1 128)
  in
  let truncated =
    real >>= fun s -> map (fun k -> String.sub s 0 k) (int_bound (String.length s))
  in
  let num =
    oneof
      [ map string_of_int small_nat;
        map string_of_int (int_range (-1000) 1000);
        oneofl [ "65536"; "65537"; "1000000"; "1000000000"; "4611686018427387903";
                 "99999999999999999999"; "-0"; "0x10"; "" ] ]
  in
  let crafted =
    map3
      (fun e v gs -> Printf.sprintf "e%sv%sg%s" e v (String.concat "," gs))
      num num (list_size (int_range 0 40) num)
  in
  let many_groups =
    map2
      (fun v n ->
        Printf.sprintf "e1v%dg%s" v
          (String.concat "," (List.init n string_of_int)))
      (int_range 1 2048) (int_range 1 5000)
  in
  let noise = string_size ~gen:(oneofl [ 'e'; 'v'; 'g'; ','; '-'; '1'; '9'; ' ' ]) (int_bound 30) in
  oneof [ real; truncated; crafted; many_groups; noise ]

let prop_hostile_spec =
  QCheck.Test.make ~name:"hostile shard specs decode to None or a bounded ring"
    ~count:500 (QCheck.make ~print:(fun s -> s) hostile_spec)
    (fun spec ->
      let bounded = function
        | None -> true
        | Some m -> Map_.ring_size m <= Map_.max_ring
      in
      bounded (Map_.decode_spec spec)
      &&
      match Shard.Partition.classify (Shard.Partition.wrong_shard ^ " " ^ spec) with
      | `Wrong_shard m -> bounded m
      | `Migrating _ | `App -> false)

let test_huge_spec_rejected () =
  List.iter
    (fun spec ->
      Alcotest.(check bool) spec true (Map_.decode_spec spec = None))
    [ "e0v1000000000g0"; "e0v65537g0"; "e0v32769g0,1"; "e0v1g" ^ String.concat "," (List.init 65537 string_of_int) ];
  Alcotest.(check bool) "a ring of max_ring points decodes" true
    (Map_.decode_spec (Printf.sprintf "e0v%dg0" Map_.max_ring) <> None)

let suite =
  [
    Alcotest.test_case "shard_map basics" `Quick test_map_basics;
    Alcotest.test_case "hostile shard specs are rejected" `Quick
      test_huge_spec_rejected;
    QCheck_alcotest.to_alcotest prop_hostile_spec;
    Alcotest.test_case "shard_map membership" `Quick test_map_membership;
    QCheck_alcotest.to_alcotest prop_balanced;
    QCheck_alcotest.to_alcotest prop_minimal_remap_add;
    QCheck_alcotest.to_alcotest prop_minimal_remap_remove;
    Alcotest.test_case "router follows redirects" `Quick test_router_redirects;
    Alcotest.test_case "router retries past a dead node" `Quick
      test_router_retries_dead_node;
    Alcotest.test_case "router gives up after retries" `Quick
      test_router_gives_up;
    Alcotest.test_case "multi_call partial failure" `Quick
      test_multi_call_partial_failure;
    Alcotest.test_case "stuck group holds no other group's calls" `Quick
      test_stuck_group_holds_no_other;
    Alcotest.test_case "two-group fleet failover" `Quick test_fleet_failover;
    Alcotest.test_case "live split and merge under traffic" `Quick
      test_live_split_merge;
    QCheck_alcotest.to_alcotest prop_epochs_monotone;
    QCheck_alcotest.to_alcotest prop_split_merge_roundtrip;
    QCheck_alcotest.to_alcotest prop_spec_roundtrip;
  ]
