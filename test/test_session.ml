(* Tests for the exactly-once session layer and the shared frontend:
   wire-format round trips and decode-fuzz, session-table semantics
   (dedup, eviction, commutativity, codec), the [Session.wrap] app
   wrapper, and end-to-end fault-injection runs proving that each of the
   three stacks (Rex, SMR, Eve) executes every acknowledged logical
   request exactly once under message drops, partitions and a leader
   kill. *)

open Sim
module R = Rex_core

(* --- Wire formats --- *)

let envelope_gen =
  QCheck.Gen.(
    map
      (fun (client, seq, payload) ->
        { R.Session.Envelope.client; seq; payload })
      (triple (int_bound 1_000_000) (int_bound 1_000_000)
         (string_size (int_bound 64))))

let prop_envelope_roundtrip =
  QCheck.Test.make ~name:"session envelope roundtrip" ~count:300
    (QCheck.make envelope_gen) (fun e ->
      R.Session.Envelope.decode (R.Session.Envelope.encode e) = Some e)

let prop_envelope_fuzz =
  (* Truncations of a valid envelope must raise [Decode_error] (they
     still carry the magic byte), never succeed or crash; strings not
     starting with the magic byte must pass through as [None]. *)
  QCheck.Test.make ~name:"session envelope decode fuzz" ~count:300
    (QCheck.pair (QCheck.make envelope_gen)
       QCheck.(string_of_size (QCheck.Gen.int_bound 64)))
    (fun (e, garbage) ->
      let enc = R.Session.Envelope.encode e in
      let truncations_fail =
        List.for_all
          (fun len ->
            match R.Session.Envelope.decode (String.sub enc 0 len) with
            | exception Codec.Decode_error _ -> true
            | Some _ | None -> false)
          (List.init (String.length enc - 1) (fun i -> i + 1))
      in
      let raw_passthrough =
        if
          String.length garbage > 0
          && Char.code garbage.[0] = R.Session.Envelope.magic
        then
          match R.Session.Envelope.decode garbage with
          | Some _ | None -> true
          | exception Codec.Decode_error _ -> true
        else R.Session.Envelope.decode garbage = None
      in
      truncations_fail && raw_passthrough)

let reply_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun s -> R.Client.Ok_reply s) (string_size (int_bound 64));
        map
          (fun h -> R.Client.Not_leader (if h < 0 then None else Some h))
          (map (fun n -> n - 1) (int_bound 64));
        return R.Client.Dropped;
      ])

let prop_reply_roundtrip =
  QCheck.Test.make ~name:"client reply roundtrip" ~count:300
    (QCheck.make reply_gen) (fun r ->
      R.Client.decode_reply (R.Client.encode_reply r) = r)

let prop_reply_fuzz =
  QCheck.Test.make ~name:"client reply decode fuzz" ~count:300
    QCheck.(string_of_size (QCheck.Gen.int_bound 64))
    (fun s ->
      match R.Client.decode_reply s with
      | _ -> true
      | exception Codec.Decode_error _ -> true)

(* --- Session table --- *)

let mk_table ?window () =
  R.Session.Table.create ?window (Obs.create ()) ~stack:"test" ~node:0 ()

let table_dedup_semantics () =
  let t = mk_table ~window:4 () in
  Alcotest.(check bool)
    "fresh seq is a miss" true
    (R.Session.Table.lookup t ~client:7 ~seq:0 = R.Session.Table.Miss);
  R.Session.Table.record t ~client:7 ~seq:0 ~reply:"a";
  Alcotest.(check bool)
    "recorded seq hits" true
    (R.Session.Table.lookup t ~client:7 ~seq:0 = R.Session.Table.Hit "a");
  Alcotest.(check bool)
    "other client unaffected" true
    (R.Session.Table.lookup t ~client:8 ~seq:0 = R.Session.Table.Miss);
  (* Fill past the window: seq 0 is evicted and classified stale. *)
  for s = 1 to 5 do
    R.Session.Table.record t ~client:7 ~seq:s ~reply:(string_of_int s)
  done;
  Alcotest.(check bool)
    "evicted seq is stale" true
    (R.Session.Table.lookup t ~client:7 ~seq:0 = R.Session.Table.Stale);
  Alcotest.(check int) "eviction counted" 2 (R.Session.Table.evictions t);
  (* A gap within the window is a miss (an out-of-order sibling), not
     stale: seq 9 unexecuted while 10..12 are. *)
  for s = 10 to 12 do
    R.Session.Table.record t ~client:9 ~seq:s ~reply:"x"
  done;
  Alcotest.(check bool)
    "in-window gap is a miss" true
    (R.Session.Table.lookup t ~client:9 ~seq:9 = R.Session.Table.Miss);
  Alcotest.(check int) "sessions gauge" 2 (R.Session.Table.sessions t)

let table_updates_commute () =
  (* Same records applied in different orders (concurrent replay) must
     converge to the same content. *)
  let records =
    [ (3, 0, "r0"); (3, 1, "r1"); (5, 0, "s0"); (3, 2, "r2"); (5, 1, "s1") ]
  in
  let apply order =
    let t = mk_table ~window:2 () in
    List.iter
      (fun (client, seq, reply) ->
        R.Session.Table.record t ~client ~seq ~reply)
      order;
    R.Session.Table.digest t
  in
  let d1 = apply records in
  let d2 = apply (List.rev records) in
  Alcotest.(check string) "digests converge" d1 d2

let table_codec_roundtrip =
  QCheck.Test.make ~name:"session table codec roundtrip" ~count:200
    QCheck.(
      list_of_size
        (QCheck.Gen.int_bound 40)
        (triple (int_bound 8) (int_bound 50) (string_of_size (QCheck.Gen.int_bound 16))))
    (fun records ->
      let t = mk_table ~window:8 () in
      List.iter
        (fun (client, seq, reply) ->
          R.Session.Table.record t ~client ~seq ~reply)
        records;
      let b = Codec.sink () in
      R.Session.Table.write b t;
      let t' = mk_table ~window:8 () in
      R.Session.Table.read (Codec.source (Codec.contents b)) t';
      R.Session.Table.digest t = R.Session.Table.digest t'
      && R.Session.Table.sessions t = R.Session.Table.sessions t')

(* Records over few clients and few seqs, so seqs repeat (a reply is
   replaced) and a window of 2 evicts. *)
let records_arb =
  QCheck.(
    list_of_size
      (QCheck.Gen.int_bound 40)
      (triple (int_bound 3) (int_bound 6) (string_of_size (QCheck.Gen.int_bound 4))))

let record_all t =
  List.iter (fun (client, seq, reply) -> R.Session.Table.record t ~client ~seq ~reply)

let table_bytes t =
  let b = Codec.sink () in
  R.Session.Table.write b t;
  Codec.contents b

let table_incremental_digest =
  (* The digest [record] keeps by difference equals the one [read]
     recomputes from the written bytes. *)
  QCheck.Test.make ~name:"session table incremental digest = from scratch"
    ~count:300 records_arb (fun records ->
      let t = mk_table ~window:2 () in
      record_all t records;
      let t' = mk_table ~window:2 () in
      R.Session.Table.read (Codec.source (table_bytes t)) t';
      R.Session.Table.digest t = R.Session.Table.digest t')

let table_savepoint_undo =
  QCheck.Test.make ~name:"session table savepoint undo restores bytes + digest"
    ~count:300 (QCheck.pair records_arb records_arb) (fun (before, after) ->
      let t = mk_table ~window:2 () in
      record_all t before;
      let bytes = table_bytes t and digest = R.Session.Table.digest t in
      let undo = R.Session.Table.savepoint t in
      record_all t after;
      undo ();
      let restored =
        table_bytes t = bytes && R.Session.Table.digest t = digest
      in
      (* The savepoint stays live: more records, then a second undo. *)
      record_all t after;
      undo ();
      restored && table_bytes t = bytes && R.Session.Table.digest t = digest)

let table_superseded_undo () =
  let t = mk_table () in
  let undo = R.Session.Table.savepoint t in
  R.Session.Table.record t ~client:1 ~seq:0 ~reply:"a";
  let undo' = R.Session.Table.savepoint t in
  Alcotest.check_raises "superseded by a newer savepoint"
    (Invalid_argument "Session.Table.savepoint: undo of a superseded savepoint")
    undo;
  R.Session.Table.record t ~client:1 ~seq:1 ~reply:"b";
  undo' ();
  Alcotest.(check bool)
    "newer undo still works" true
    (R.Session.Table.lookup t ~client:1 ~seq:1 = R.Session.Table.Miss
    && R.Session.Table.lookup t ~client:1 ~seq:0 = R.Session.Table.Hit "a");
  R.Session.Table.clear t;
  Alcotest.check_raises "ended by clear"
    (Invalid_argument "Session.Table.savepoint: undo of a superseded savepoint")
    undo'

let table_codec_fuzz =
  QCheck.Test.make ~name:"session table decode fuzz" ~count:300
    QCheck.(string_of_size (QCheck.Gen.int_bound 64))
    (fun s ->
      let t = mk_table () in
      match R.Session.Table.read (Codec.source s) t with
      | () -> true
      | exception Codec.Decode_error _ -> true)

(* --- The app wrapper --- *)

let counter_app () =
  let n = ref 0 in
  ( n,
    {
      R.App.name = "ctr";
      execute =
        (fun ~request:_ ->
          incr n;
          string_of_int !n);
      query = (fun ~request:_ -> string_of_int !n);
      write_checkpoint = (fun sink -> Codec.write_uvarint sink !n);
      read_checkpoint = (fun src -> n := Codec.read_uvarint src);
      digest = (fun () -> string_of_int !n);
    } )

let env client seq payload =
  R.Session.Envelope.encode { R.Session.Envelope.client; seq; payload }

let wrap_dedups_and_checkpoints () =
  let table = mk_table () in
  let n, app = counter_app () in
  let wrapped = R.Session.wrap ~table ~dedup_in_execute:true app in
  let r1 = wrapped.R.App.execute ~request:(env 1 0 "inc") in
  Alcotest.(check string) "first execution" "1" r1;
  let r2 = wrapped.R.App.execute ~request:(env 1 0 "inc") in
  Alcotest.(check string) "duplicate returns cached" "1" r2;
  Alcotest.(check int) "no second execution" 1 !n;
  Alcotest.(check int) "dup counted" 1 (R.Session.Table.dup_hits table);
  Alcotest.(check string)
    "raw requests pass through" "2"
    (wrapped.R.App.execute ~request:"raw-inc");
  (* The table rides inside the wrapped checkpoint. *)
  let b = Codec.sink () in
  wrapped.R.App.write_checkpoint b;
  let table' = mk_table () in
  let n', app' = counter_app () in
  let wrapped' = R.Session.wrap ~table:table' ~dedup_in_execute:true app' in
  wrapped'.R.App.read_checkpoint (Codec.source (Codec.contents b));
  Alcotest.(check int) "app state restored" 2 !n';
  Alcotest.(check bool)
    "session state restored" true
    (R.Session.Table.lookup table' ~client:1 ~seq:0 = R.Session.Table.Hit "1");
  Alcotest.(check string)
    "restored replica still dedups" "1"
    (wrapped'.R.App.execute ~request:(env 1 0 "inc"));
  Alcotest.(check string)
    "wrapped digests agree" (wrapped.R.App.digest ())
    (wrapped'.R.App.digest ())

(* --- Fault-injection: exactly-once on all three stacks ---

   Shared scaffolding: [concurrency] fibers share one client and drain
   [total] "INC k" requests with generous retries while the network
   drops messages, a partition comes and goes, and the leader is killed
   mid-run.  Exactly-once holds iff every request is acknowledged and
   the responses are a permutation of 1..total — a lost ack that was
   retried yields a duplicate value instead, and a double execution
   skips one. *)

let drive ~eng ~node ~cl ~total ~remaining =
  let results = ref [] in
  let pending = ref (List.init total (fun i -> i)) in
  for _ = 1 to 4 do
    ignore
      (Engine.spawn eng ~node ~name:"session-client" (fun () ->
           let rec loop () =
             match !pending with
             | [] -> ()
             | _ :: rest ->
               pending := rest;
               let resp = R.Client.call ~retries:100 cl "INC k" in
               results := resp :: !results;
               decr remaining;
               loop ()
           in
           loop ()))
  done;
  results

let check_exactly_once ~stack ~total ~remaining ~results ~dup_hits =
  Alcotest.(check int) (stack ^ ": all requests finished") 0 !remaining;
  let values =
    List.map
      (function
        | Some v -> int_of_string v
        | None -> Alcotest.fail (stack ^ ": a request exhausted its retries"))
      !results
    |> List.sort compare
  in
  Alcotest.(check (list int))
    (stack ^ ": responses are a permutation of 1..n (exactly-once)")
    (List.init total (fun i -> i + 1))
    values;
  Alcotest.(check bool)
    (stack ^ ": duplicates were intercepted (dup_hits > 0)")
    true (dup_hits () > 0)

let pump eng remaining ~deadline =
  let rec go () =
    Engine.run ~until:(Engine.clock eng +. 0.5) eng;
    if !remaining > 0 && Engine.clock eng < deadline then go ()
  in
  go ()

let fault_exactly_once_rex () =
  let total = 40 in
  let cluster =
    R.Cluster.create ~seed:2027
      (R.Config.make ~workers:4 ~replicas:[ 0; 1; 2 ] ())
      (fun api ->
        let n = ref 0 in
        let lock = R.Api.lock api "k" in
        {
          R.App.name = "ctr";
          execute =
            (fun ~request:_ ->
              R.Api.work api 2e-5;
              Rexsync.Lock.with_lock lock (fun () ->
                  incr n;
                  string_of_int !n));
          query = (fun ~request:_ -> string_of_int !n);
          write_checkpoint = (fun sink -> Codec.write_uvarint sink !n);
          read_checkpoint = (fun src -> n := Codec.read_uvarint src);
          digest = (fun () -> string_of_int !n);
        })
  in
  R.Cluster.start cluster;
  let primary = R.Cluster.await_primary cluster in
  let eng = R.Cluster.engine cluster in
  let net = R.Cluster.net cluster in
  let cl = R.Cluster.client cluster in
  let cnode = R.Cluster.client_node cluster in
  Net.set_drop_probability net 0.08;
  let remaining = ref total in
  let results = drive ~eng ~node:cnode ~cl ~total ~remaining in
  Engine.run ~until:(Engine.clock eng +. 0.4) eng;
  (* A partition separates the primary from one secondary for a while. *)
  let p = R.Server.node primary in
  let other = List.find (fun n -> n <> p) (R.Cluster.replica_nodes cluster) in
  Net.partition net p other;
  Engine.run ~until:(Engine.clock eng +. 0.4) eng;
  Net.heal net p other;
  (* Kill the primary mid-stream: committed-but-unacked requests must be
     answered from the new primary's session table, not re-executed. *)
  R.Cluster.crash cluster p;
  pump eng remaining ~deadline:(Engine.clock eng +. 60.);
  Net.set_drop_probability net 0.;
  pump eng remaining ~deadline:(Engine.clock eng +. 30.);
  check_exactly_once ~stack:"rex" ~total ~remaining ~results ~dup_hits:(fun () ->
      List.fold_left
        (fun acc s ->
          acc + R.Session.Table.dup_hits (R.Server.session_table s))
        0
        (Array.to_list (R.Cluster.servers cluster)));
  R.Cluster.check_no_divergence cluster;
  (* The surviving replicas agree on the final count. *)
  let live =
    Array.to_list (R.Cluster.servers cluster)
    |> List.filter (fun s -> Engine.node_alive eng (R.Server.node s))
  in
  R.Cluster.run_for cluster 1.0;
  List.iter
    (fun s ->
      Alcotest.(check string)
        "rex: final counter" (string_of_int total)
        (R.Server.query s "GET"))
    live

let smr_counter_factory () : R.App.factory =
 fun _api ->
  let n = ref 0 in
  {
    R.App.name = "ctr";
    execute =
      (fun ~request:_ ->
        incr n;
        string_of_int !n);
    query = (fun ~request:_ -> string_of_int !n);
    write_checkpoint = (fun sink -> Codec.write_uvarint sink !n);
    read_checkpoint = (fun src -> n := Codec.read_uvarint src);
    digest = (fun () -> string_of_int !n);
  }

let fault_exactly_once_smr () =
  let total = 30 in
  let eng = Engine.create ~seed:2029 ~cores_per_node:8 ~num_nodes:4 () in
  let net = Net.create eng in
  let rpc = Rpc.create net in
  let config = R.Config.make ~workers:1 ~replicas:[ 0; 1; 2 ] () in
  let stores = Array.init 3 (fun _ -> Paxos.Store.create ()) in
  let servers =
    Array.init 3 (fun i ->
        Smr.create net rpc config ~node:i ~paxos_store:stores.(i)
          (smr_counter_factory ()))
  in
  Array.iter Smr.start servers;
  Engine.run ~until:1.0 eng;
  let leader =
    match Array.find_opt Smr.is_primary servers with
    | Some s -> s
    | None -> Alcotest.fail "smr: no leader elected"
  in
  Net.set_drop_probability net 0.08;
  let cl = R.Client.create rpc ~me:3 ~replicas:[ 0; 1; 2 ] in
  let remaining = ref total in
  let results = drive ~eng ~node:3 ~cl ~total ~remaining in
  Engine.run ~until:(Engine.clock eng +. 0.5) eng;
  Engine.crash_node eng (Smr.node leader);
  pump eng remaining ~deadline:(Engine.clock eng +. 60.);
  Net.set_drop_probability net 0.;
  pump eng remaining ~deadline:(Engine.clock eng +. 30.);
  check_exactly_once ~stack:"smr" ~total ~remaining ~results ~dup_hits:(fun () ->
      Array.fold_left
        (fun acc s -> acc + R.Session.Table.dup_hits (Smr.session_table s))
        0 servers);
  Engine.run ~until:(Engine.clock eng +. 2.) eng;
  let live =
    Array.to_list servers
    |> List.filter (fun s -> Engine.node_alive eng (Smr.node s))
  in
  List.iter
    (fun s ->
      Alcotest.(check string)
        "smr: final counter" (string_of_int total) (Smr.query s "GET"))
    live

let fault_exactly_once_eve () =
  let total = 30 in
  let eng = Engine.create ~seed:2039 ~cores_per_node:8 ~num_nodes:4 () in
  let net = Net.create eng in
  let rpc = Rpc.create net in
  let cfg = Eve.default_config ~workers:4 ~replicas:[ 0; 1; 2 ] () in
  let stores = Array.init 3 (fun _ -> Paxos.Store.create ()) in
  let servers =
    Array.init 3 (fun i ->
        Eve.create net rpc cfg ~node:i ~paxos_store:stores.(i)
          ~conflict_keys:(fun _ -> [ "k" ])
          (smr_counter_factory ()))
  in
  Array.iter Eve.start servers;
  Engine.run ~until:1.0 eng;
  let leader =
    match Array.find_opt Eve.is_primary servers with
    | Some s -> s
    | None -> Alcotest.fail "eve: no leader elected"
  in
  Net.set_drop_probability net 0.08;
  let cl = R.Client.create rpc ~me:3 ~replicas:[ 0; 1; 2 ] in
  let remaining = ref total in
  let results = drive ~eng ~node:3 ~cl ~total ~remaining in
  Engine.run ~until:(Engine.clock eng +. 0.5) eng;
  Engine.crash_node eng (Eve.node leader);
  pump eng remaining ~deadline:(Engine.clock eng +. 60.);
  Net.set_drop_probability net 0.;
  pump eng remaining ~deadline:(Engine.clock eng +. 30.);
  check_exactly_once ~stack:"eve" ~total ~remaining ~results ~dup_hits:(fun () ->
      Array.fold_left
        (fun acc s -> acc + R.Session.Table.dup_hits (Eve.session_table s))
        0 servers);
  Engine.run ~until:(Engine.clock eng +. 2.) eng;
  let live =
    Array.to_list servers
    |> List.filter (fun s -> Engine.node_alive eng (Eve.node s))
  in
  List.iter
    (fun s ->
      Alcotest.(check string)
        "eve: final counter" (string_of_int total) (Eve.query s "GET"))
    live

(* --- Deterministic duplicate: the same envelope sent twice --- *)

let crafted_duplicate_not_reexecuted () =
  let cluster =
    R.Cluster.create ~seed:53
      (R.Config.make ~workers:2 ~replicas:[ 0; 1; 2 ] ())
      (smr_counter_factory ())
  in
  R.Cluster.start cluster;
  let primary = R.Cluster.await_primary cluster in
  let eng = R.Cluster.engine cluster in
  let rpc = R.Cluster.rpc cluster in
  let cnode = R.Cluster.client_node cluster in
  let p = R.Server.node primary in
  let first = ref None and second = ref None in
  ignore
    (Engine.spawn eng ~node:cnode (fun () ->
         let envelope = env 999_983 0 "inc" in
         first := Rpc.call rpc ~src:cnode ~dst:p ~port:R.Client.client_port ~timeout:5.0 envelope;
         second := Rpc.call rpc ~src:cnode ~dst:p ~port:R.Client.client_port ~timeout:5.0 envelope));
  R.Cluster.run_for cluster 15.0;
  let decode r =
    match r with
    | Some s -> (
      match R.Client.decode_reply s with
      | R.Client.Ok_reply v -> Some v
      | _ -> None)
    | None -> None
  in
  Alcotest.(check (option string)) "first executes" (Some "1") (decode !first);
  Alcotest.(check (option string))
    "retry answered from cache" (Some "1") (decode !second);
  Alcotest.(check string) "state unchanged" "1" (R.Server.query primary "GET");
  Alcotest.(check bool)
    "dup hit counted" true
    (R.Session.Table.dup_hits (R.Server.session_table primary) > 0)

(* --- Sessions survive checkpoint restore and failover --- *)

let sessions_survive_checkpoint_and_failover () =
  let cluster =
    R.Cluster.create ~seed:59
      (R.Config.make ~workers:2 ~checkpoint_interval:(Some 0.2)
         ~replicas:[ 0; 1; 2 ] ())
      (smr_counter_factory ())
  in
  R.Cluster.start cluster;
  let primary = R.Cluster.await_primary cluster in
  let eng = R.Cluster.engine cluster in
  let rpc = R.Cluster.rpc cluster in
  let cnode = R.Cluster.client_node cluster in
  let p = R.Server.node primary in
  let envelope = env 77_777 0 "inc" in
  let first = ref None in
  ignore
    (Engine.spawn eng ~node:cnode (fun () ->
         first :=
           Rpc.call rpc ~src:cnode ~dst:p ~port:R.Client.client_port
             ~timeout:5.0 envelope));
  R.Cluster.run_for cluster 5.0;
  Alcotest.(check bool) "request acknowledged" true (!first <> None);
  (* Let checkpoints (which embed the session table) happen, then bounce
     a secondary: its rebuilt state comes from the checkpoint + trace. *)
  R.Cluster.run_for cluster 1.0;
  let sec =
    List.find (fun n -> n <> p) (R.Cluster.replica_nodes cluster)
  in
  R.Cluster.crash cluster sec;
  R.Cluster.run_for cluster 0.5;
  R.Cluster.restart cluster sec;
  R.Cluster.run_for cluster 3.0;
  let restored = R.Cluster.server cluster sec in
  Alcotest.(check bool)
    "restored secondary knows the session" true
    (R.Session.Table.lookup
       (R.Server.session_table restored)
       ~client:77_777 ~seq:0
    = R.Session.Table.Hit "1");
  (* Failover: the old primary dies; a pre-checkpoint retry sent to the
     new primary must be served from the restored table, unexecuted. *)
  R.Cluster.crash cluster p;
  let new_primary = R.Cluster.await_primary cluster in
  let retry = ref None in
  ignore
    (Engine.spawn eng ~node:cnode (fun () ->
         retry :=
           Rpc.call rpc ~src:cnode ~dst:(R.Server.node new_primary)
             ~port:R.Client.client_port ~timeout:5.0 envelope));
  R.Cluster.run_for cluster 10.0;
  (match !retry with
  | Some s -> (
    match R.Client.decode_reply s with
    | R.Client.Ok_reply v ->
      Alcotest.(check string) "retry served from session cache" "1" v
    | _ -> Alcotest.fail "retry not answered Ok")
  | None -> Alcotest.fail "retry timed out");
  Alcotest.(check string)
    "state not re-mutated" "1"
    (R.Server.query new_primary "GET")

let suite =
  [
    QCheck_alcotest.to_alcotest prop_envelope_roundtrip;
    QCheck_alcotest.to_alcotest prop_envelope_fuzz;
    QCheck_alcotest.to_alcotest prop_reply_roundtrip;
    QCheck_alcotest.to_alcotest prop_reply_fuzz;
    Alcotest.test_case "table dedup semantics" `Quick table_dedup_semantics;
    Alcotest.test_case "table updates commute" `Quick table_updates_commute;
    QCheck_alcotest.to_alcotest table_codec_roundtrip;
    QCheck_alcotest.to_alcotest table_codec_fuzz;
    QCheck_alcotest.to_alcotest table_incremental_digest;
    QCheck_alcotest.to_alcotest table_savepoint_undo;
    Alcotest.test_case "table superseded undo raises" `Quick
      table_superseded_undo;
    Alcotest.test_case "wrap dedups + checkpoints" `Quick
      wrap_dedups_and_checkpoints;
    Alcotest.test_case "crafted duplicate not re-executed" `Quick
      crafted_duplicate_not_reexecuted;
    Alcotest.test_case "sessions survive ckpt + failover" `Quick
      sessions_survive_checkpoint_and_failover;
    Alcotest.test_case "exactly-once under faults: rex" `Quick
      fault_exactly_once_rex;
    Alcotest.test_case "exactly-once under faults: smr" `Quick
      fault_exactly_once_smr;
    Alcotest.test_case "exactly-once under faults: eve" `Quick
      fault_exactly_once_eve;
  ]
