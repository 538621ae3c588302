(* Open-loop load: a fleet of sessions drives each replicated stack
   through the shared frontend at a rate the servers do not control,
   with frontend admission shedding what cannot be served and a
   bounded-memory sampled checker watching correctness the whole time.

   `bench load` runs, in order:
   - a ramp across the five stacks (rex, smr, eve, cbase, early) with a
     per-stack goodput/latency/shed table (and, with --check, a sampled
     linearizability verdict per stack);
   - an admission ON/OFF A/B on rex at the same offered overload: ON
     must shed explicitly while keeping the queue and the SLO burn
     bounded, OFF must exhibit the unbounded-queue / timeout collapse;
   - a dedup-off canary: an at-least-once client under reply drops must
     be flagged by the sampled checker (double commit);
   - a domains smoke: the same generator config replayed on the real
     OCaml 5 domains backend must produce a byte-identical arrival/key
     trace (cross-backend determinism witness).

   Every assertion raises Harness.Failed, so the suite doubles as a
   tier-1 smoke via `bench load --quick`.  --timeline-out writes one CSV
   with a `# stack=<name>` section per ramp run. *)

open Sim
module R = Rex_core
module L = Load

module Stack = Check.Runner

(* Every stack the checker knows but the sharded fleet. *)
let all_stacks = Stack.[ Rex; Smr; Eve; Cbase; Early ]
let stack_names = List.map Stack.stack_name all_stacks

(* Conflict oracle for the sched stacks and Eve: ops conflict iff they
   touch the same counter key. *)
let conflict req =
  match Check.Spec.words req with
  | "INC" :: k :: _ | [ "GET"; k ] -> [ k ]
  | _ -> [ "*" ]

(* ---------------------------------------------------------------- *)
(* Deployment: one of the five stacks, 3 replicas on nodes 0-2 and the
   session fleet on the client node, with admission knobs threaded into
   the stack's own config. *)

type admit = { ad_global : int; ad_per_client : int; ad_soft : int; ad_hard : int }

let no_admit = { ad_global = 0; ad_per_client = 0; ad_soft = 0; ad_hard = 0 }

type deployed = {
  dp_eng : Engine.t;
  dp_net : Net.t;
  dp_rpc : Rpc.t;
  dp_node : int;  (* where the load engine and its clients live *)
  dp_fronts : R.Frontend.t list;
}

let replicas = [ 0; 1; 2 ]

let deploy ?record_cost ~seed ~admit stack =
  let { ad_global; ad_per_client; ad_soft; ad_hard } = admit in
  let cfg =
    R.Config.make ~workers:4 ?record_cost ~admit_global:ad_global
      ~admit_per_client:ad_per_client ~admit_queue_soft:ad_soft
      ~admit_queue_hard:ad_hard ~replicas ()
  in
  match stack with
  | Stack.Rex ->
    let cluster =
      R.Cluster.create ~seed cfg (Stack.keyed_counter_factory ())
    in
    R.Cluster.start cluster;
    ignore (R.Cluster.await_primary cluster);
    {
      dp_eng = R.Cluster.engine cluster;
      dp_net = R.Cluster.net cluster;
      dp_rpc = R.Cluster.rpc cluster;
      dp_node = R.Cluster.client_node cluster;
      dp_fronts =
        Array.to_list (R.Cluster.servers cluster)
        |> List.map R.Server.frontend;
    }
  | stack ->
    let (Stack.Log_stack mk) =
      Stack.log_stack stack cfg ~conflict (Stack.keyed_counter_factory ())
    in
    let c = R.Cluster.create_log ~seed ~replicas mk in
    R.Cluster.start c;
    (* The load runs whether or not a leader is up by then. *)
    Engine.run ~until:1.0 (R.Cluster.engine c);
    {
      dp_eng = R.Cluster.engine c;
      dp_net = R.Cluster.net c;
      dp_rpc = R.Cluster.rpc c;
      dp_node = R.Cluster.client_node c;
      dp_fronts =
        Array.to_list (R.Cluster.servers c)
        |> List.map R.Log_server.frontend;
    }

(* ---------------------------------------------------------------- *)
(* The target: the blocking call one arrival performs.  Clients are
   created lazily per session (each gets its own session identity, so
   the replicas' dedup tables see the real fleet).  With [sample] every
   op is recorded into the bounded-memory checker; a [Shed] outcome is
   certified never-executed by the client, which is exactly what
   Sample.reject's must-never-commit watch needs. *)

(* One client per session, created on first use with the replica that
   last answered a write first: a fresh session then does not pay a
   redirect back-off whenever node 0 is not the leader. *)
type sessions = {
  s_rpc : Rpc.t;
  s_node : int;
  s_clients : (int, R.Client.t) Hashtbl.t;
  mutable s_leader : int;
}

let sessions rpc ~node =
  {
    s_rpc = rpc;
    s_node = node;
    s_clients = Hashtbl.create 4096;
    s_leader = List.hd replicas;
  }

let session_client ss session =
  match Hashtbl.find_opt ss.s_clients session with
  | Some c -> c
  | None ->
    let replicas =
      ss.s_leader :: List.filter (fun n -> n <> ss.s_leader) replicas
    in
    let c = R.Client.create ss.s_rpc ~me:ss.s_node ~replicas in
    Hashtbl.add ss.s_clients session c;
    c

let wrote ss cl = ss.s_leader <- R.Client.leader_guess cl

let make_target ~eng ~rpc ~node ?sample () =
  let ss = sessions rpc ~node in
  let now () = Engine.clock eng in
  let inv ~session req =
    match sample with
    | None -> -1
    | Some sm -> Check.Sample.invoke sm ~now:(now ()) ~client:session ~request:req
  in
  let fin id resp =
    Option.iter (fun sm -> Check.Sample.finish sm ~now:(now ()) id resp) sample
  in
  let rej id =
    Option.iter (fun sm -> Check.Sample.reject sm ~now:(now ()) id) sample
  in
  fun ~session ~seq ~key ~read ->
    let cl = session_client ss session in
    if read then begin
      let req = Printf.sprintf "GET k%d" key in
      let id = inv ~session req in
      match R.Client.query ~retries:4 cl req with
      | Some _ as r ->
        fin id r;
        L.Engine.Done
      | None ->
        fin id None;
        L.Engine.Timeout
    end
    else begin
      (* The trailing token makes every payload unique, so the checker's
         rejected-payload watch cannot collide across sessions. *)
      let req = Printf.sprintf "INC k%d t%d.%d" key session seq in
      let id = inv ~session req in
      match R.Client.call_outcome ~retries:6 cl req with
      | R.Client.Reply r ->
        wrote ss cl;
        fin id (Some r);
        L.Engine.Done
      | R.Client.Shed ->
        rej id;
        L.Engine.Rejected
      | R.Client.Gave_up ->
        fin id None;
        L.Engine.Timeout
    end

(* Run the load engine inside the simulation: spawn the runner fiber on
   the client node and pump the engine until it reports. *)
let exec ~dp ?timeline ~target cfg =
  let result = ref None in
  ignore
    (Engine.spawn dp.dp_eng ~node:dp.dp_node ~name:"load-run" (fun () ->
         result :=
           Some
             (L.Engine.run
                (Par.Backend.of_sim dp.dp_eng)
                ~node:dp.dp_node ?timeline ~target cfg)));
  let deadline = Engine.clock dp.dp_eng +. cfg.L.Engine.duration +. 600. in
  while !result = None && Engine.clock dp.dp_eng < deadline do
    Engine.run ~until:(Engine.clock dp.dp_eng +. 1.0) dp.dp_eng
  done;
  match !result with
  | None ->
    Harness.fail "load: run not drained %.0fs past the horizon"
      (deadline -. cfg.L.Engine.duration)
  | Some st ->
    (* Let stragglers (commit taps, duplicate replies) settle before the
       checker closes its books. *)
    Engine.run ~until:(Engine.clock dp.dp_eng +. 1.0) dp.dp_eng;
    st

(* The engine's books must balance: every generated arrival is either
   shed engine-side or admitted, and every admitted call ends in exactly
   one outcome bucket. *)
let check_accounting ~label (st : L.Engine.stats) =
  if st.generated <> st.admitted + st.shed_session + st.shed_queue then
    Harness.fail "load %s: generated %d <> admitted %d + shed %d/%d" label
      st.generated st.admitted st.shed_session st.shed_queue;
  if st.admitted <> st.ok + st.busy + st.timeouts + st.errors then
    Harness.fail "load %s: admitted %d <> ok %d + busy %d + to %d + err %d"
      label st.admitted st.ok st.busy st.timeouts st.errors;
  if st.errors > 0 then Harness.fail "load %s: %d errors" label st.errors

let finalize_sample ~label sm =
  Check.Sample.finalize sm;
  let stats = Check.Sample.stats sm in
  Printf.printf "   %-6s %s\n%!" label
    (Format.asprintf "%a" Check.Sample.pp_stats stats);
  (stats, Check.Sample.violations sm)

let assert_sample_ok ~label sm =
  let _, viols = finalize_sample ~label sm in
  (match viols with
  | [] -> ()
  | v :: _ ->
    Harness.fail "load --check (%s): %d violation(s); first: %s %s [%s]" label
      (List.length viols) v.Check.Sample.v_kind v.Check.Sample.v_key
      v.Check.Sample.v_detail);
  if not (Check.Sample.ok sm) then
    Harness.fail "load --check (%s): a window tripped its search budget" label

(* ---------------------------------------------------------------- *)
(* 1. Ramp across the five stacks. *)

let ramp ~quick ~check ~stacks =
  let sessions = if quick then 20_000 else 100_000 in
  let duration = if quick then 3.0 else 8.0 in
  let lo = if quick then 200. else 300. in
  let hi = if quick then 800. else 1500. in
  Printf.printf
    "\n== Open-loop ramp: %d sessions, %.0f -> %.0f req/s over %.0fs ==\n"
    sessions lo hi duration;
  if check then
    print_endline "   (--check: sampled windowed linearizability asserted)";
  Printf.printf "%-6s %9s %9s %7s %7s %7s %8s %8s %8s %9s %7s\n" "stack"
    "generated" "ok" "shed" "busy" "tmout" "p50ms" "p99ms" "p999ms" "goodput/s"
    "maxq";
  let timelines = ref [] in
  List.iter
    (fun stack ->
      let name = Stack.stack_name stack in
      let admit =
        { ad_global = 512; ad_per_client = 8; ad_soft = 768; ad_hard = 1536 }
      in
      let dp = deploy ~seed:(9100 + Hashtbl.hash name mod 97) ~admit stack in
      let sample =
        if not check then None
        else begin
          let sm =
            Check.Sample.create ~keys_cap:48 ~window_cap:512 ~seed:31
              Check.Spec.keyed_counter
          in
          Check.Sample.wire sm dp.dp_fronts;
          Some sm
        end
      in
      let cfg =
        L.Engine.config ~keys:256 ~theta:0.99 ~read_ratio:0.5 ~queue_cap:8192
          ~callers:64 ~slo:0.05 ~sessions
          ~profile:(L.Arrivals.Ramp { lo; hi; over = duration })
          ~duration ~seed:4242 ()
      in
      let tl =
        if !Harness.timeline_path = None then None
        else Some (Obs.Timeline.create ())
      in
      let target = make_target ~eng:dp.dp_eng ~rpc:dp.dp_rpc ~node:dp.dp_node ?sample () in
      let st = exec ~dp ?timeline:tl ~target cfg in
      Harness.note_run ~label:("load-" ^ name) dp.dp_eng;
      check_accounting ~label:name st;
      if st.ok = 0 then Harness.fail "load %s: no request ever completed" name;
      if st.ok * 10 < st.generated * 8 then
        Harness.fail "load %s: goodput collapsed (%d ok of %d) under a ramp \
                      the stack should absorb" name st.ok st.generated;
      Option.iter (fun tl -> timelines := (name, tl) :: !timelines) tl;
      Printf.printf "%-6s %9d %9d %7d %7d %7d %8.2f %8.2f %8.2f %9.0f %7d\n%!"
        name st.generated st.ok
        (st.shed_session + st.shed_queue)
        st.busy st.timeouts (1e3 *. st.p50) (1e3 *. st.p99) (1e3 *. st.p999)
        (float_of_int st.ok /. duration)
        st.max_queue;
      Option.iter (fun sm -> assert_sample_ok ~label:name sm) sample)
    stacks;
  (* One CSV, a section per stack, written directly (the harness sink
     only keeps the most recent run's timeline). *)
  match !Harness.timeline_path with
  | Some path when !timelines <> [] ->
    let buf = Buffer.create 4096 in
    List.iter
      (fun (name, tl) ->
        Buffer.add_string buf (Printf.sprintf "# stack=%s\n" name);
        Buffer.add_string buf (Obs.Timeline.to_csv tl))
      (List.rev !timelines);
    Obs.Export.to_file ~path (Buffer.contents buf);
    (* Disarm the path: flush_outputs would otherwise overwrite the
       multi-stack file with a header-only CSV (no harness sink armed). *)
    Harness.timeline_path := None;
    Printf.printf "   timeline CSV (%d stacks) -> %s\n%!"
      (List.length !timelines) path
  | _ -> ()

(* ---------------------------------------------------------------- *)
(* 2. Admission ON/OFF A/B on rex at the same offered overload.  The
   record-cost model makes service capacity finite (~2k req/s across 4
   workers), so the offered 2.5k/s is a genuine overload.  ON must shed
   explicitly (Busy + engine queue bound) and keep goodput and the SLO
   burn healthy; OFF must show the collapse: queue growth bounded only
   by the run length, timeouts instead of rejections. *)

let overload_ab ~quick =
  let sessions = if quick then 6_000 else 20_000 in
  let duration = if quick then 2.0 else 4.0 in
  let rate = 2_500. in
  Printf.printf
    "\n== Overload A/B (rex): %.0f req/s offered, ~2k req/s capacity ==\n" rate;
  let go ~label ~admit ~queue_cap =
    let dp = deploy ~record_cost:2e-3 ~seed:551 ~admit Stack.Rex in
    (* 256 callers and inflight 8 keep the load engine out of the way:
       the full offered rate reaches the frontend, where the contrast
       under test lives. *)
    let cfg =
      L.Engine.config ~keys:64 ~read_ratio:0.2 ~session_inflight:8 ~queue_cap
        ~callers:256 ~slo:0.05 ~sessions ~profile:(L.Arrivals.Steady rate)
        ~duration ~seed:1717 ()
    in
    let target = make_target ~eng:dp.dp_eng ~rpc:dp.dp_rpc ~node:dp.dp_node () in
    let st = exec ~dp ~target cfg in
    Harness.note_run ~label:("load-ab-" ^ label) dp.dp_eng;
    check_accounting ~label:("ab-" ^ label) st;
    Printf.printf
      "%-4s %9d %9d %7d %7d %7d %8.1f %8.1f %9d %9d\n%!" label st.generated
      st.ok (L.Engine.shed st) st.busy st.timeouts (1e3 *. st.p50)
      (1e3 *. st.p99) st.max_queue st.slo_breach;
    st
  in
  Printf.printf "%-4s %9s %9s %7s %7s %7s %8s %8s %9s %9s\n" "mode" "generated"
    "ok" "shed" "busy" "tmout" "p50ms" "p99ms" "maxq" "sloburn";
  let on =
    go ~label:"on"
      ~admit:{ ad_global = 256; ad_per_client = 8; ad_soft = 96; ad_hard = 192 }
      ~queue_cap:2048
  in
  let off = go ~label:"off" ~admit:no_admit ~queue_cap:1_000_000 in
  if on.busy = 0 then
    Harness.fail "overload A/B: admission ON never shed (busy = 0)";
  if L.Engine.shed on = 0 then
    Harness.fail "overload A/B: admission ON shed nothing";
  if off.max_queue < 4 * max on.max_queue 1 then
    Harness.fail
      "overload A/B: OFF queue high-water %d not >> ON %d — overload control \
       made no difference"
      off.max_queue on.max_queue;
  (* Both runs are capacity-bound, so goodput cannot rise; admission's
     win is turning slow timeouts into fast explicit rejections without
     giving any goodput back. *)
  if on.ok * 10 < off.ok * 9 then
    Harness.fail "overload A/B: admission cost goodput (%d ok vs %d without)"
      on.ok off.ok;
  if on.timeouts >= off.timeouts then
    Harness.fail
      "overload A/B: ON timeouts %d not below OFF %d — shedding did not \
       replace client-burned time"
      on.timeouts off.timeouts;
  if 2 * on.slo_breach >= off.slo_breach then
    Harness.fail "overload A/B: SLO burn ON (%d) not well under OFF (%d)"
      on.slo_breach off.slo_breach;
  if on.p99 > duration then
    Harness.fail "overload A/B: ON p99 %.3fs unbounded (run was %.0fs)"
      on.p99 duration;
  print_endline
    "   admission ON: explicit shed, bounded queue + p99; OFF: collapse. ok"

(* ---------------------------------------------------------------- *)
(* 3. Dedup-off canary: an at-least-once client (fresh envelope per
   retry, same payload) under reply drops re-executes lost-reply
   requests; the sampled checker must notice — a second commit for a
   live payload is the double-commit signature, and the value skew is
   non-linearizable. *)

let canary ~quick =
  print_endline
    "\n== Canary: at-least-once client under 6% drops (must be flagged) ==";
  let admit =
    { ad_global = 512; ad_per_client = 16; ad_soft = 768; ad_hard = 1536 }
  in
  let dp = deploy ~seed:909 ~admit Stack.Rex in
  Net.set_drop_probability dp.dp_net 0.06;
  let sm =
    Check.Sample.create ~keys_cap:16 ~window_cap:256 ~seed:5
      Check.Spec.keyed_counter
  in
  Check.Sample.wire sm dp.dp_fronts;
  let ss = sessions dp.dp_rpc ~node:dp.dp_node in
  let now () = Engine.clock dp.dp_eng in
  let target ~session ~seq ~key ~read =
    let cl = session_client ss session in
    if read then begin
      let req = Printf.sprintf "GET k%d" key in
      let id = Check.Sample.invoke sm ~now:(now ()) ~client:session ~request:req in
      match R.Client.query ~retries:4 cl req with
      | Some _ as r ->
        Check.Sample.finish sm ~now:(now ()) id r;
        L.Engine.Done
      | None ->
        Check.Sample.finish sm ~now:(now ()) id None;
        L.Engine.Timeout
    end
    else begin
      let req = Printf.sprintf "INC k%d t%d.%d" key session seq in
      let id = Check.Sample.invoke sm ~now:(now ()) ~client:session ~request:req in
      (* At-least-once, deliberately: a timed-out attempt is re-sent as a
         NEW envelope with the same payload, so a lost reply means double
         execution.  This is the bug the checker exists to catch. *)
      let resp =
        match R.Client.call ~retries:1 ~timeout:0.08 cl req with
        | Some r -> Some r
        | None -> R.Client.call ~retries:4 cl req
      in
      if resp <> None then wrote ss cl;
      Check.Sample.finish sm ~now:(now ()) id resp;
      match resp with Some _ -> L.Engine.Done | None -> L.Engine.Timeout
    end
  in
  let cfg =
    L.Engine.config ~keys:8 ~read_ratio:0.3 ~callers:16 ~queue_cap:4096
      ~sessions:128
      ~profile:(L.Arrivals.Steady (if quick then 100. else 160.))
      ~duration:2.0 ~seed:2024 ()
  in
  let st = exec ~dp ~target cfg in
  Net.set_drop_probability dp.dp_net 0.;
  Engine.run ~until:(Engine.clock dp.dp_eng +. 1.0) dp.dp_eng;
  let _, viols = finalize_sample ~label:"canary" sm in
  let flagged =
    List.exists
      (fun v ->
        v.Check.Sample.v_kind = "double-commit"
        || v.Check.Sample.v_kind = "non-linearizable"
        || v.Check.Sample.v_kind = "unresolved-commit")
      viols
  in
  if not flagged then
    Harness.fail
      "canary NOT flagged: %d ops under drops produced no double-commit / \
       non-linearizable violation — the sampled checker is blind"
      st.generated;
  let v = List.hd viols in
  Printf.printf "   flagged as expected: %s on %s (%s)\n%!"
    v.Check.Sample.v_kind v.Check.Sample.v_key v.Check.Sample.v_detail

(* ---------------------------------------------------------------- *)
(* 4. Domains smoke: the generator is pure, so the same config must
   yield a byte-identical (time, session, key) trace on the sim backend
   and on real OCaml 5 domains (where the dispatcher paces against the
   wall clock).  null_target keeps this a generator/engine test, not a
   replication test. *)

let domains_smoke ~quick =
  print_endline "\n== Domains smoke: cross-backend trace determinism ==";
  let cfg =
    L.Engine.config ~keys:128 ~trace_cap:400
      ~sessions:(if quick then 10_000 else 50_000)
      ~profile:(L.Arrivals.Steady 1500.)
      ~duration:(if quick then 0.4 else 1.0)
      ~seed:77 ()
  in
  let sim_stats =
    let eng = Engine.create ~seed:77 ~num_nodes:2 () in
    let result = ref None in
    ignore
      (Engine.spawn eng ~node:0 ~name:"load-sim" (fun () ->
           result :=
             Some
               (L.Engine.run (Par.Backend.of_sim eng) ~node:0
                  ~target:L.Engine.null_target cfg)));
    Engine.run ~until:(cfg.L.Engine.duration +. 30.) eng;
    match !result with
    | Some st -> st
    | None -> Harness.fail "domains smoke: sim run did not finish"
  in
  let dom_stats =
    let d = Par.Domains.create ~seed:77 () in
    let result = Atomic.make None in
    Par.Domains.spawn d ~node:0 ~name:"load-dom" (fun () ->
        Atomic.set result
          (Some
             (L.Engine.run (Par.Domains.backend d) ~node:0
                ~target:L.Engine.null_target cfg)));
    Par.Domains.join d;
    Harness.note_run_obs ~label:"load-domains" ~time:(Par.Domains.now d)
      (Par.Domains.obs d);
    Par.Domains.shutdown d;
    match Atomic.get result with
    | Some st -> st
    | None -> Harness.fail "domains smoke: domains run did not finish"
  in
  check_accounting ~label:"domains" dom_stats;
  if sim_stats.generated <> dom_stats.generated then
    Harness.fail "domains smoke: generated %d (sim) <> %d (domains)"
      sim_stats.generated dom_stats.generated;
  if sim_stats.trace <> dom_stats.trace then begin
    let n = min (Array.length sim_stats.trace) (Array.length dom_stats.trace) in
    let i = ref 0 in
    while !i < n && sim_stats.trace.(!i) = dom_stats.trace.(!i) do incr i done;
    Harness.fail
      "domains smoke: traces diverge at event %d of %d/%d — the generator \
       leaked backend state"
      !i
      (Array.length sim_stats.trace)
      (Array.length dom_stats.trace)
  end;
  Printf.printf
    "   %d arrivals, trace witness (%d events) identical on sim and domains. ok\n%!"
    dom_stats.generated
    (Array.length dom_stats.trace)

(* ---------------------------------------------------------------- *)

let run ?(quick = false) ?(check = false) ?stack () =
  let stacks =
    match stack with
    | None -> all_stacks
    | Some s -> (
      match Stack.stack_of_string s with
      | Some st when List.mem st all_stacks -> [ st ]
      | Some _ | None ->
        Harness.fail "unknown stack %S (expected one of %s)" s
          (String.concat ", " stack_names))
  in
  ramp ~quick ~check ~stacks;
  if stack = None then begin
    overload_ab ~quick;
    canary ~quick;
    domains_smoke ~quick
  end;
  Harness.flush_outputs ()

(* `check --open-loop`: the checker-first entry point — sampled windowed
   verdicts across every stack plus the seeded canary that proves the
   checker can still see a real bug. *)
let open_loop_check ?(quick = false) () =
  ramp ~quick ~check:true ~stacks:all_stacks;
  canary ~quick;
  Harness.flush_outputs ()
