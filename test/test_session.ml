(* Tests for the exactly-once session layer and the shared frontend:
   wire-format round trips and decode-fuzz, session-table semantics
   (dedup, eviction, commutativity, codec, a reference model), the
   [Session.wrap] app wrapper, and end-to-end fault-injection runs
   proving that Rex, SMR, CBASE and Eve execute every acknowledged
   logical request exactly once under message drops, partitions and a
   leader kill, also once the client's reply window evicts. *)

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
        return R.Client.Busy;
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

(* --- Client leader guess --- *)

module Guess = R.Client.Guess

(* The unversioned guess the retry loops kept before: an index into the
   replica array, moved by [rotate] and [point_at]. *)
module Old_guess = struct
  type t = { nodes : int array; mutable guess : int }

  let create nodes = { nodes = Array.of_list nodes; guess = 0 }
  let leader t = t.nodes.(t.guess)
  let rotate t = t.guess <- (t.guess + 1) mod Array.length t.nodes
  let point_at t node = Array.iteri (fun i n -> if n = node then t.guess <- i) t.nodes
end

(* What an attempt's reply does to the guess: a timeout, a Dropped and
   a hint-less Not_leader rotate it; a hinted Not_leader redirects it. *)
type answer = Timeout | Dropped | Hint of int option

let answer_gen =
  QCheck.Gen.(
    frequency
      [
        (3, return Timeout);
        (1, return Dropped);
        (1, return (Hint None));
        (3, map (fun h -> Hint (Some h)) (int_bound 6));
      ])

let show_answer = function
  | Timeout -> "timeout"
  | Dropped -> "dropped"
  | Hint None -> "NL -"
  | Hint (Some h) -> Printf.sprintf "NL %d" h

let apply g ~version = function
  | Timeout | Dropped | Hint None -> Guess.rotate g ~version
  | Hint (Some h) -> Guess.redirect g h

(* Node lists may repeat a node and hints may name a node not in the
   list: both guesses must agree on those too. *)
let nodes_gen = QCheck.Gen.(list_size (int_range 1 5) (int_bound 5))

let prop_guess_single_caller =
  QCheck.Test.make ~name:"guess: one caller moves like the unversioned guess"
    ~count:500
    (QCheck.make
       ~print:(fun (nodes, answers) ->
         Printf.sprintf "nodes [%s] answers [%s]"
           (String.concat ";" (List.map string_of_int nodes))
           (String.concat "; " (List.map show_answer answers)))
       QCheck.Gen.(pair nodes_gen (list_size (int_bound 40) answer_gen)))
    (fun (nodes, answers) ->
      let g = Guess.create nodes and old = Old_guess.create nodes in
      List.for_all
        (fun a ->
          (* One caller: every attempt is sent under the current version. *)
          apply g ~version:(Guess.version g) a;
          (match a with
          | Timeout | Dropped | Hint None -> Old_guess.rotate old
          | Hint (Some h) -> Old_guess.point_at old h);
          Guess.leader g = Old_guess.leader old)
        answers)

(* k concurrent attempts on one guess.  An attempt starts (taking the
   current version), then ends with an answer; ends interleave freely. *)
type step = Start of int | End of int * answer

let prop_guess_no_stale_rotation =
  let k = 4 in
  let step_gen =
    QCheck.Gen.(
      oneof
        [
          map (fun i -> Start i) (int_bound (k - 1));
          map2 (fun i a -> End (i, a)) (int_bound (k - 1)) answer_gen;
        ])
  in
  let show = function
    | Start i -> Printf.sprintf "start %d" i
    | End (i, a) -> Printf.sprintf "%d: %s" i (show_answer a)
  in
  QCheck.Test.make
    ~name:"guess: a late timeout never undoes a newer redirect" ~count:500
    (QCheck.make
       ~print:(fun steps -> String.concat "; " (List.map show steps))
       QCheck.Gen.(list_size (int_bound 60) step_gen))
    (fun steps ->
      let g = Guess.create [ 0; 1; 2 ] in
      (* started.(i): (version, step index) of attempt i, if in flight *)
      let started = Array.make k None and last_redirect = ref (-1) in
      List.for_all
        (fun (n, step) ->
          match step with
          | Start i ->
            started.(i) <- Some (Guess.version g, n);
            true
          | End (i, a) -> (
            match started.(i) with
            | None -> true
            | Some (version, began) ->
              started.(i) <- None;
              let before = Guess.leader g in
              apply g ~version a;
              match a with
              | Hint (Some h) ->
                if Guess.leader g = h then last_redirect := n;
                true
              | Timeout | Dropped | Hint None ->
                (* A rotation by an attempt older than the last redirect
                   leaves the guess where the redirect put it. *)
                began > !last_redirect || Guess.leader g = before))
        (List.mapi (fun n s -> (n, s)) steps))

let guess_set_nodes () =
  let g = Guess.create [ 0; 1; 2 ] in
  Guess.redirect g 2;
  let v = Guess.version g in
  Guess.set_nodes g [ 4; 2; 1 ];
  Alcotest.(check int) "leader kept" 2 (Guess.leader g);
  Alcotest.(check bool) "version bumped" true (Guess.version g > v);
  Guess.rotate g ~version:v;
  Alcotest.(check int) "stale rotation ignored" 2 (Guess.leader g);
  Guess.set_nodes g [ 5; 6 ];
  Alcotest.(check int) "leader gone: first node" 5 (Guess.leader g);
  Alcotest.check_raises "no nodes"
    (Invalid_argument "Client.Guess: no replicas") (fun () ->
      Guess.set_nodes g [])

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

(* A reference model of the table: a sorted reply list per client,
   searched with [List.assoc_opt], merged by insertion and trimmed to the
   window on every record.  The table must answer exactly as it does. *)
module Model = struct
  type t = {
    window : int;
    mutable sessions : (int * (int * (int * string) list)) list;
        (* client -> last_seq, replies (seq descending) *)
    mutable evictions : int;
  }

  let create window = { window; sessions = []; evictions = 0 }

  let lookup m ~client ~seq =
    match List.assoc_opt client m.sessions with
    | None -> R.Session.Table.Miss
    | Some (last_seq, replies) -> (
      match List.assoc_opt seq replies with
      | Some reply -> R.Session.Table.Hit reply
      | None ->
        if seq <= last_seq - m.window then R.Session.Table.Stale
        else R.Session.Table.Miss)

  let rec insert_sorted seq reply = function
    | [] -> [ (seq, reply) ]
    | (s, _) :: _ as rest when seq > s -> (seq, reply) :: rest
    | (s, _) :: rest when seq = s -> (s, reply) :: rest
    | p :: rest -> p :: insert_sorted seq reply rest

  let rec keep n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: keep (n - 1) rest

  let record m ~client ~seq ~reply =
    let last_seq, replies =
      Option.value (List.assoc_opt client m.sessions) ~default:(-1, [])
    in
    let replies = insert_sorted seq reply replies in
    let n = List.length replies in
    if n > m.window then m.evictions <- m.evictions + (n - m.window);
    m.sessions <-
      (client, (max last_seq seq, keep m.window replies))
      :: List.remove_assoc client m.sessions

  let bytes m =
    let b = Codec.sink () in
    Codec.write_list b
      (fun b (client, (last_seq, replies)) ->
        Codec.write_uvarint b client;
        Codec.write_varint b last_seq;
        Codec.write_list b
          (fun b (seq, reply) ->
            Codec.write_uvarint b seq;
            Codec.write_string b reply)
          replies)
      (List.sort compare m.sessions);
    Codec.contents b
end

type table_op =
  | Record of int * int * string  (* client, seq step, reply *)
  | Savepoint
  | Undo
  | Reload  (* [write] into a fresh table, then carry on with it *)

let show_table_op = function
  | Record (c, d, r) -> Printf.sprintf "rec(%d,%+d,%S)" c d r
  | Savepoint -> "savepoint"
  | Undo -> "undo"
  | Reload -> "reload"

(* Seqs step mostly up by one from the client's highest so far, with
   gaps, repeats (a replaced reply) and steps back (out-of-order
   records, inside and below the window). *)
let table_ops_gen =
  let open QCheck.Gen in
  let step =
    frequency
      [
        (14, return 1);
        (2, int_range 2 4);
        (1, return 0);
        (2, int_range (-3) (-1));
        (1, int_range (-70) (-4));
      ]
  in
  let op =
    frequency
      [
        ( 24,
          map3
            (fun c d r -> Record (c, d, r))
            (int_bound 3) step
            (string_size ~gen:(char_range 'a' 'c') (int_bound 3)) );
        (1, return Savepoint);
        (1, return Undo);
        (1, return Reload);
      ]
  in
  oneofl [ 1; 2; 64 ] >>= fun window ->
  map (fun ops -> (window, ops))
    (list_size (int_bound (if window = 64 then 500 else 60)) op)

let table_matches_model =
  QCheck.Test.make ~name:"session table = list model (windows 1, 2, 64)"
    ~count:150
    (QCheck.make table_ops_gen ~print:(fun (w, ops) ->
         Printf.sprintf "window %d: %s" w
           (String.concat " " (List.map show_table_op ops))))
    (fun (window, ops) ->
      let t = ref (mk_table ~window ()) and m = Model.create window in
      let undo = ref None and saved = ref [] in
      let high = Hashtbl.create 4 in
      let evictions_base = ref 0 in
      let agrees () =
        let b = Model.bytes m in
        let t' = mk_table ~window () in
        R.Session.Table.read (Codec.source b) t';
        table_bytes !t = b
        && R.Session.Table.digest !t = R.Session.Table.digest t'
        && R.Session.Table.sessions !t = List.length m.Model.sessions
        && R.Session.Table.evictions !t + !evictions_base = m.Model.evictions
        && List.for_all
             (fun client ->
               let top = Option.value (Hashtbl.find_opt high client) ~default:0 in
               List.for_all
                 (fun seq ->
                   R.Session.Table.lookup !t ~client ~seq
                   = Model.lookup m ~client ~seq)
                 (List.init (window + 6) (fun i -> top + 2 - i)))
             [ 0; 1; 2; 3; 4 ]
      in
      List.for_all
        (fun op ->
          (match op with
          | Record (client, step, reply) ->
            let top = Option.value (Hashtbl.find_opt high client) ~default:(-1) in
            let seq = max 0 (top + step) in
            Hashtbl.replace high client (max top seq);
            R.Session.Table.record !t ~client ~seq ~reply;
            Model.record m ~client ~seq ~reply
          | Savepoint ->
            undo := Some (R.Session.Table.savepoint !t);
            saved := m.Model.sessions
          | Undo ->
            Option.iter
              (fun undo ->
                undo ();
                m.Model.sessions <- !saved)
              !undo
          | Reload ->
            let t' = mk_table ~window () in
            R.Session.Table.read (Codec.source (table_bytes !t)) t';
            evictions_base := m.Model.evictions;
            t := t';
            undo := None);
          agrees ())
        ops)

(* [read] refuses rows that break what [lookup] relies on. *)
let table_read_rejects_broken_rows () =
  let rows rs =
    let b = Codec.sink () in
    Codec.write_list b
      (fun b (client, last_seq, replies) ->
        Codec.write_uvarint b client;
        Codec.write_varint b last_seq;
        Codec.write_list b
          (fun b seq ->
            Codec.write_uvarint b seq;
            Codec.write_string b "r")
          replies)
      rs;
    Codec.contents b
  in
  let reads bytes =
    match R.Session.Table.read (Codec.source bytes) (mk_table ~window:4 ()) with
    | () -> true
    | exception Codec.Decode_error _ -> false
  in
  Alcotest.(check bool) "well-formed rows read" true
    (reads (rows [ (1, 9, [ 9; 7; 6; 2 ]); (3, -1, []); (4, 5, []) ]));
  Alcotest.(check bool) "reply seq above last_seq refused" false
    (reads (rows [ (1, 5, [ 7 ]) ]));
  Alcotest.(check bool) "repeated reply seq refused" false
    (reads (rows [ (1, 9, [ 9; 9 ]) ]));
  Alcotest.(check bool) "ascending reply seqs refused" false
    (reads (rows [ (1, 9, [ 3; 8 ]) ]));
  Alcotest.(check bool) "more replies than the window refused" false
    (reads (rows [ (1, 9, [ 9; 8; 7; 6; 5 ]) ]));
  Alcotest.(check bool) "clients out of order refused" false
    (reads (rows [ (3, 0, []); (1, 0, []) ]));
  Alcotest.(check bool) "repeated client refused" false
    (reads (rows [ (1, 0, []); (1, 1, []) ]))

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

(* SMR, CBASE and Eve share the log-order server core, so one scenario
   drives them all: message drops, then a leader crash.  Past [window]
   requests the client's reply window evicts on every replica, and the
   exactly-once verdict must still hold. *)
let fault_exactly_once_log ~stack ~seed ~total create () =
  let eng = Engine.create ~seed ~cores_per_node:8 ~num_nodes:4 () in
  let net = Net.create eng in
  let rpc = Rpc.create net in
  let stores = Array.init 3 (fun _ -> Paxos.Store.create ()) in
  let servers =
    Array.init 3 (fun i -> create net rpc ~node:i ~paxos_store:stores.(i))
  in
  Array.iter R.Log_server.start servers;
  Engine.run ~until:1.0 eng;
  let leader =
    match Array.find_opt R.Log_server.is_primary servers with
    | Some s -> s
    | None -> Alcotest.fail (stack ^ ": no leader elected")
  in
  Net.set_drop_probability net 0.08;
  let cl = R.Client.create rpc ~me:3 ~replicas:[ 0; 1; 2 ] in
  let remaining = ref total in
  let results = drive ~eng ~node:3 ~cl ~total ~remaining in
  Engine.run ~until:(Engine.clock eng +. 0.5) eng;
  Engine.crash_node eng (R.Log_server.node leader);
  pump eng remaining ~deadline:(Engine.clock eng +. 60.);
  Net.set_drop_probability net 0.;
  pump eng remaining ~deadline:(Engine.clock eng +. 30.);
  check_exactly_once ~stack ~total ~remaining ~results ~dup_hits:(fun () ->
      Array.fold_left
        (fun acc s ->
          acc + R.Session.Table.dup_hits (R.Log_server.session_table s))
        0 servers);
  Engine.run ~until:(Engine.clock eng +. 2.) eng;
  let live =
    Array.to_list servers
    |> List.filter (fun s -> Engine.node_alive eng (R.Log_server.node s))
  in
  List.iter
    (fun s ->
      Alcotest.(check string)
        (stack ^ ": final counter") (string_of_int total)
        (R.Log_server.query s "GET"))
    live;
  Alcotest.(check int) (stack ^ ": live replicas") 2 (List.length live);
  let tables = List.map R.Log_server.session_table live in
  List.iter
    (fun t ->
      Alcotest.(check string)
        (stack ^ ": session digests converge")
        (R.Session.Table.digest (List.hd tables))
        (R.Session.Table.digest t);
      if total > R.Session.Table.window t then
        Alcotest.(check bool)
          (stack ^ ": replies evicted past the window") true
          (R.Session.Table.evictions t > 0))
    tables

let smr_stack net rpc ~node ~paxos_store =
  Smr.create net rpc
    (R.Config.make ~workers:1 ~replicas:[ 0; 1; 2 ] ())
    ~node ~paxos_store (smr_counter_factory ())

let cbase_stack net rpc ~node ~paxos_store =
  Sched.Server.create net rpc
    (R.Config.make ~workers:4 ~replicas:[ 0; 1; 2 ] ())
    ~node ~paxos_store ~mode:Sched.Exec.Cbase ~conflict:Sched.Conflict.kv
    (smr_counter_factory ())

let eve_stack net rpc ~node ~paxos_store =
  Eve.create net rpc
    (Eve.default_config ~workers:4 ~replicas:[ 0; 1; 2 ] ())
    ~node ~paxos_store
    ~conflict_keys:(fun _ -> [ "k" ])
    (smr_counter_factory ())

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
    QCheck_alcotest.to_alcotest prop_guess_single_caller;
    QCheck_alcotest.to_alcotest prop_guess_no_stale_rotation;
    Alcotest.test_case "guess set_nodes" `Quick guess_set_nodes;
    Alcotest.test_case "table dedup semantics" `Quick table_dedup_semantics;
    Alcotest.test_case "table updates commute" `Quick table_updates_commute;
    QCheck_alcotest.to_alcotest table_codec_roundtrip;
    QCheck_alcotest.to_alcotest table_codec_fuzz;
    QCheck_alcotest.to_alcotest table_incremental_digest;
    QCheck_alcotest.to_alcotest table_savepoint_undo;
    QCheck_alcotest.to_alcotest table_matches_model;
    Alcotest.test_case "table read rejects broken rows" `Quick
      table_read_rejects_broken_rows;
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
      (fault_exactly_once_log ~stack:"smr" ~seed:2029 ~total:30 smr_stack);
    Alcotest.test_case "exactly-once under faults: eve" `Quick
      (fault_exactly_once_log ~stack:"eve" ~seed:2039 ~total:30 eve_stack);
    Alcotest.test_case "exactly-once past the window: smr" `Quick
      (fault_exactly_once_log ~stack:"smr" ~seed:2029 ~total:160 smr_stack);
    Alcotest.test_case "exactly-once past the window: cbase" `Quick
      (fault_exactly_once_log ~stack:"cbase" ~seed:2031 ~total:160 cbase_stack);
    Alcotest.test_case "exactly-once past the window: eve" `Quick
      (fault_exactly_once_log ~stack:"eve" ~seed:2039 ~total:160 eve_stack);
  ]
