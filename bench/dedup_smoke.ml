(* Dedup-under-faults smoke: drive a non-idempotent counter through each
   stack (Rex, SMR, Eve) from retrying clients while the network drops
   messages and the leader is killed mid-run, then check the exactly-once
   contract: every acknowledged request executed once, so the responses
   of n "INC" requests are a permutation of 1..n and the final counter is
   exactly n on every surviving replica.

   Prints one row per stack (requests, completed, dup_hits, evictions,
   sessions, final count, verdict) and exits non-zero on any double
   execution, lost request, or divergence — CI runs `dedup --quick` and
   the full `dedup`. *)

open Sim
module R = Rex_core

(* The counter must be guarded by a Rex lock: on the Rex stack requests
   execute concurrently and the recorded lock order is what makes replay
   (and hence the response values) deterministic.  SMR and Eve run the
   same factory through the native synchronization path. *)
let counter_factory () : R.App.factory =
 fun api ->
  let n = ref 0 in
  let lock = R.Api.lock api "ctr" in
  {
    R.App.name = "ctr";
    execute =
      (fun ~request:_ ->
        Rexsync.Lock.with_lock lock (fun () ->
            incr n;
            string_of_int !n));
    query = (fun ~request:_ -> string_of_int !n);
    write_checkpoint = (fun sink -> Codec.write_uvarint sink !n);
    read_checkpoint = (fun src -> n := Codec.read_uvarint src);
    digest = (fun () -> string_of_int !n);
  }

type row = {
  stack : string;
  total : int;
  completed : int;
  verdict : string;
  dup_hits : int;
  evictions : int;
  sessions : int;
  final : string;
}

(* [values]: the sorted responses of the calls that got one.  A repeated
   response, or a counter past [total], is an execution too many; fewer
   than [total] responses (a call that gave up or was still pending), or
   a final count short of [total], is a lost request. *)
let verdict ~total ~values ~final ~dup_hits =
  let final_n = int_of_string_opt final in
  let rec repeats = function
    | a :: (b :: _ as rest) -> a = b || repeats rest
    | [] | [ _ ] -> false
  in
  if
    repeats values
    || List.exists (fun v -> v > total) values
    || Option.fold ~none:false ~some:(fun n -> n > total) final_n
  then "DOUBLE-EXECUTION"
  else if List.length values < total || final_n <> Some total then "LOST"
  else if dup_hits = 0 then "NO-DUPLICATE"
  else "exactly-once"

let mk_row ~stack ~total ~results ~dup_hits ~evictions ~sessions ~final =
  let values =
    List.filter_map (Option.map int_of_string) !results |> List.sort compare
  in
  let dup_hits = dup_hits () in
  {
    stack;
    total;
    completed = List.length values;
    verdict = verdict ~total ~values ~final ~dup_hits;
    dup_hits;
    evictions = evictions ();
    sessions = sessions ();
    final;
  }

(* Four fibers share one client (and thus one session identity) and
   drain the request list with generous retries.  With [history] the
   calls are recorded for the linearizability check (--check). *)
let drive ~eng ~node ~cl ?history ~total () =
  let results = ref [] and remaining = ref total in
  let pending = ref (List.init total (fun i -> i)) in
  let call () =
    match history with
    | None -> R.Client.call ~retries:2000 cl "INC"
    | Some h ->
      Check.History.record h ~client:(R.Client.client_id cl) ~request:"INC"
        (fun () -> R.Client.call ~retries:2000 cl "INC")
  in
  for _ = 1 to 4 do
    ignore
      (Engine.spawn eng ~node ~name:"dedup-client" (fun () ->
           let rec loop () =
             match !pending with
             | [] -> ()
             | _ :: rest ->
               pending := rest;
               let resp = call () in
               results := resp :: !results;
               decr remaining;
               loop ()
           in
           loop ()))
  done;
  (results, remaining)

(* The --check verdict: the recorded history must linearize against the
   counter spec.  The dedup smoke's own permutation check looks at final
   values only; this one also constrains every intermediate response. *)
let lin_verdict ~stack h =
  Check.History.resolve h;
  let res = Check.Lin.check Check.Spec.counter (Check.History.entries h) in
  (match res.Check.Lin.verdict with
  | Check.Lin.Linearizable -> ()
  | Check.Lin.Non_linearizable w ->
    Harness.fail "dedup --check (%s): history NOT linearizable: %s" stack
      (String.concat "; " w)
  | Check.Lin.Limit ->
    Harness.fail "dedup --check (%s): checker ran out of budget" stack);
  Printf.printf "   %-6s %s\n%!" stack
    (Format.asprintf "%a" Check.Lin.pp_result res)

let pump eng remaining ~deadline =
  ignore
    (Harness.pump ~step:0.5 eng ~done_p:(fun () -> !remaining = 0)
       ~virtual_deadline:deadline)

let rex_run ~total ~seed ~check =
  let cluster =
    R.Cluster.create ~seed
      (R.Config.make ~workers:4 ~replicas:[ 0; 1; 2 ] ())
      (counter_factory ())
  in
  R.Cluster.start cluster;
  let primary = R.Cluster.await_primary cluster in
  let eng = R.Cluster.engine cluster in
  let net = R.Cluster.net cluster in
  let history =
    if not check then None
    else begin
      let h = Check.History.create eng in
      Array.iter
        (fun s -> Check.History.wire h [ R.Server.frontend s ])
        (R.Cluster.servers cluster);
      Some h
    end
  in
  Net.set_drop_probability net 0.08;
  let results, remaining =
    drive ~eng ~node:(R.Cluster.client_node cluster)
      ~cl:(R.Cluster.client cluster) ?history ~total ()
  in
  Engine.run ~until:(Engine.clock eng +. 0.5) eng;
  R.Cluster.crash cluster (R.Server.node primary);
  pump eng remaining ~deadline:(Engine.clock eng +. 180.);
  Net.set_drop_probability net 0.;
  pump eng remaining ~deadline:(Engine.clock eng +. 90.);
  R.Cluster.check_no_divergence cluster;
  R.Cluster.run_for cluster 1.0;
  let servers = Array.to_list (R.Cluster.servers cluster) in
  let live =
    List.filter (fun s -> Engine.node_alive eng (R.Server.node s)) servers
  in
  Option.iter (fun h -> lin_verdict ~stack:"rex" h) history;
  let sum f = List.fold_left (fun a s -> a + f (R.Server.session_table s)) 0 in
  mk_row ~stack:"rex" ~total ~results
    ~dup_hits:(fun () -> sum R.Session.Table.dup_hits servers)
    ~evictions:(fun () -> sum R.Session.Table.evictions servers)
    ~sessions:(fun () ->
      List.fold_left
        (fun a s -> max a (R.Session.Table.sessions (R.Server.session_table s)))
        0 servers)
    ~final:
      (match live with
      | s :: _ -> R.Server.query s "GET"
      | [] -> "no-live-replica")

(* SMR and Eve: the same scenario over {!R.Log_cluster}. *)
let log_run stack ~total ~seed ~check =
  let name = Check.Runner.stack_name stack in
  let replicas = [ 0; 1; 2 ] in
  let (Check.Runner.Log_stack mk) =
    Check.Runner.log_stack stack
      (R.Config.make ~workers:4 ~replicas ())
      ~conflict:(fun _ -> [ "k" ])
      (counter_factory ())
  in
  let cluster = R.Log_cluster.create ~seed ~replicas mk in
  let eng = R.Log_cluster.engine cluster in
  let net = R.Log_cluster.net cluster in
  let all = Array.to_list (R.Log_cluster.servers cluster) in
  let history =
    if not check then None
    else begin
      let h = Check.History.create eng in
      Check.History.wire h (List.map R.Log_server.frontend all);
      Some h
    end
  in
  R.Log_cluster.start cluster;
  let leader = R.Log_cluster.await_primary cluster in
  Net.set_drop_probability net 0.08;
  let results, remaining =
    drive ~eng ~node:(R.Log_cluster.client_node cluster)
      ~cl:(R.Log_cluster.client cluster) ?history ~total ()
  in
  Engine.run ~until:(Engine.clock eng +. 0.5) eng;
  R.Log_cluster.crash cluster (R.Log_server.node leader);
  pump eng remaining ~deadline:(Engine.clock eng +. 180.);
  Net.set_drop_probability net 0.;
  pump eng remaining ~deadline:(Engine.clock eng +. 90.);
  Engine.run ~until:(Engine.clock eng +. 2.) eng;
  Option.iter (fun h -> lin_verdict ~stack:name h) history;
  let table = R.Log_server.session_table in
  let sum f = List.fold_left (fun a s -> a + f (table s)) 0 all in
  mk_row ~stack:name ~total ~results
    ~dup_hits:(fun () -> sum R.Session.Table.dup_hits)
    ~evictions:(fun () -> sum R.Session.Table.evictions)
    ~sessions:(fun () ->
      List.fold_left
        (fun a s -> max a (R.Session.Table.sessions (table s)))
        0 all)
    ~final:
      (match R.Log_cluster.live cluster with
      | s :: _ -> R.Log_server.query s "GET"
      | [] -> "no-live-replica")

let run ?(quick = false) ?(check = false) () =
  let total = if quick then 40 else 200 in
  print_endline "";
  print_endline
    "== Exactly-once under faults (8% drops + leader kill, retrying \
     clients) ==";
  if check then
    print_endline "   (--check: histories recorded, linearizability asserted)";
  Printf.printf "%-6s %9s %10s %9s %10s %9s %8s  %s\n" "stack" "requests"
    "completed" "dup_hits" "evictions" "sessions" "final" "verdict";
  let rows =
    [
      rex_run ~total ~seed:4242 ~check;
      log_run Check.Runner.Smr ~total ~seed:4243 ~check;
      log_run Check.Runner.Eve ~total ~seed:4244 ~check;
    ]
  in
  List.iter
    (fun r ->
      Printf.printf "%-6s %9d %10d %9d %10d %9d %8s  %s\n" r.stack r.total
        r.completed r.dup_hits r.evictions r.sessions r.final r.verdict)
    rows;
  match List.filter (fun r -> r.verdict <> "exactly-once") rows with
  | [] -> ()
  | bad ->
    Harness.fail
      "dedup smoke FAILED: %s (DOUBLE-EXECUTION: a retried request ran \
       twice; LOST: a request never executed; NO-DUPLICATE: no retry \
       was ever intercepted)"
      (String.concat ", "
         (List.map (fun r -> Printf.sprintf "%s %s" r.stack r.verdict) bad))
