open Sim
module R = Rex_core

let digest_port = "eve.digest"
let verdict_port = "eve.verdict"

type config = {
  replicas : int list;
  workers : int;
  batch_max : int;
  mix_interval : float;
  miss_rate : float;
  heartbeat_period : float;
  election_timeout : float;
  lease_duration : float;
  lease_drift_bound : float;
  lease_unsafe : bool;
  admit_global : int;
  admit_per_client : int;
  admit_queue_soft : int;
  admit_queue_hard : int;
}

let default_config ?(workers = 8) ?(batch_max = 64) ?(miss_rate = 0.)
    ?(lease_duration = 20e-3) ?(lease_drift_bound = 0.2)
    ?(lease_unsafe = false) ?(admit_global = 0) ?(admit_per_client = 0)
    ?(admit_queue_soft = 0) ?(admit_queue_hard = 0) ~replicas () =
  {
    replicas;
    workers;
    batch_max;
    mix_interval = 2e-4;
    miss_rate;
    heartbeat_period = 5e-3;
    election_timeout = 50e-3;
    lease_duration;
    lease_drift_bound;
    lease_unsafe;
    admit_global;
    admit_per_client;
    admit_queue_soft;
    admit_queue_hard;
  }

type stats = {
  requests_executed : int;
  replies_sent : int;
  batches : int;
  rollbacks : int;
  avg_batch : float;
}

type verdict = Ok_batch | Rollback

type t = {
  eng : Engine.t;
  net : Net.t;
  cfg : config;
  node_id : int;
  pstore : Paxos.Store.t;
  app : R.App.t;  (* session-wrapped: see [create] *)
  inner : R.App.t;  (* the same app unwrapped: its checkpoint is [app]'s minus [session] *)
  session : R.Session.Table.t;
  snap : Codec.sink;  (* [inner]'s checkpoint at the start of the current batch *)
  conflict_keys : string -> string list;
  rng : Rng.t;
  mutable pax : Paxos.Replica.t option;
  mutable front : R.Frontend.t option;
  mutable leader : bool;
  (* leader: intake and per-batch callbacks *)
  pending : (string * (string option -> unit)) Queue.t;
  inflight_cbs : (int, (string option -> unit) array) Hashtbl.t;
      (* batch instance -> callbacks *)
  (* every replica: committed batches to execute, in order *)
  exec_queue : (int * string array) Queue.t;
  mutable exec_waiters : Engine.waker list;
  mutable applied : int;  (* highest verdict-final instance *)
  mutable executing : bool;  (* a batch is mid-execution / pre-verdict *)
  mutable read_waiters : Engine.waker list;
      (* reads parked until the state is verdict-final again: mid-batch
         parallel state may roll back and must never be observed *)
  (* leader: digest collection; every replica: decided verdicts *)
  collected : (int, (int * string) list) Hashtbl.t;
  verdicts : (int, verdict) Hashtbl.t;
  mutable verdict_waiters : Engine.waker list;
  (* observability (subsystem "eve", labelled by node) *)
  obs : Obs.t;
  c_requests : Obs.Metric.counter;
  c_replies : Obs.Metric.counter;
  c_batches : Obs.Metric.counter;
  c_rollbacks : Obs.Metric.counter;
  c_batched_reqs : Obs.Metric.counter;
  h_batch_size : Obs.Histogram.t;
}

let node t = t.node_id
let is_primary t = t.leader
let session_table t = t.session

let frontend t =
  match t.front with
  | Some f -> f
  | None -> invalid_arg "Eve.frontend: not registered"

let app_digest t = t.app.R.App.digest ()

let stats t =
  let batches = Obs.Metric.value t.c_batches in
  {
    requests_executed = Obs.Metric.value t.c_requests;
    replies_sent = Obs.Metric.value t.c_replies;
    batches;
    rollbacks = Obs.Metric.value t.c_rollbacks;
    avg_batch =
      (if batches = 0 then 0.
       else float_of_int (Obs.Metric.value t.c_batched_reqs) /. float_of_int batches);
  }

let encode_batch reqs = R.Frontend.encode_batch (Array.to_list reqs)
let decode_batch v = Array.of_list (R.Frontend.decode_batch v)

let wake_all ws = List.iter Engine.wake ws

let wake_executor t =
  let ws = t.exec_waiters in
  t.exec_waiters <- [];
  wake_all ws

let wake_verdicts t =
  let ws = t.verdict_waiters in
  t.verdict_waiters <- [];
  wake_all ws

let wake_readers t =
  let ws = t.read_waiters in
  t.read_waiters <- [];
  wake_all ws

let leader_hint t =
  match t.pax with
  | Some p -> (
    match Paxos.Replica.leader_hint p with
    | Some l -> l
    | None -> List.hd t.cfg.replicas)
  | None -> List.hd t.cfg.replicas

(* --- Leader: verdict decision --- *)

let decide t instance =
  if not (Hashtbl.mem t.verdicts instance) then begin
    let ds = Option.value (Hashtbl.find_opt t.collected instance) ~default:[] in
    let alive =
      List.filter (fun n -> Engine.node_alive t.eng n) t.cfg.replicas
    in
    if List.length ds >= List.length alive then begin
      let digests = List.map snd ds in
      let v =
        match digests with
        | [] -> Rollback
        | d :: rest -> if List.for_all (( = ) d) rest then Ok_batch else Rollback
      in
      Hashtbl.replace t.verdicts instance v;
      (* [on_digest] consults only [verdicts] from here on *)
      Hashtbl.remove t.collected instance;
      let payload =
        Codec.encode
          (fun (i, ok) b ->
            Codec.write_uvarint b i;
            Codec.write_bool b ok)
          (instance, v = Ok_batch)
      in
      List.iter
        (fun peer ->
          if peer <> t.node_id then
            Net.send t.net ~src:t.node_id ~dst:peer ~port:verdict_port payload)
        t.cfg.replicas;
      wake_verdicts t
    end
  end

let on_digest t ~src payload =
  let i, d =
    Codec.decode
      (fun s ->
        let i = Codec.read_uvarint s in
        let d = Codec.read_string s in
        (i, d))
      payload
  in
  (match Hashtbl.find_opt t.verdicts i with
  | Some v ->
    (* already decided: re-send the verdict to the (late) asker *)
    let payload =
      Codec.encode
        (fun (i, ok) b ->
          Codec.write_uvarint b i;
          Codec.write_bool b ok)
        (i, v = Ok_batch)
    in
    if src <> t.node_id then
      Net.send t.net ~src:t.node_id ~dst:src ~port:verdict_port payload
  | None ->
    let prev = Option.value (Hashtbl.find_opt t.collected i) ~default:[] in
    if not (List.mem_assoc src prev) then
      Hashtbl.replace t.collected i ((src, d) :: prev);
    decide t i)

let on_verdict t payload =
  let i, ok =
    Codec.decode
      (fun s ->
        let i = Codec.read_uvarint s in
        let ok = Codec.read_bool s in
        (i, ok))
      payload
  in
  if not (Hashtbl.mem t.verdicts i) then begin
    Hashtbl.replace t.verdicts i (if ok then Ok_batch else Rollback);
    wake_verdicts t
  end

(* Report our digest for a batch and park until the verdict arrives,
   re-reporting periodically in case the leader changed. *)
let await_verdict t instance digest =
  let payload =
    Codec.encode
      (fun (i, d) b ->
        Codec.write_uvarint b i;
        Codec.write_string b d)
      (instance, digest)
  in
  let send () =
    let l = leader_hint t in
    if l = t.node_id then on_digest t ~src:t.node_id payload
    else Net.send t.net ~src:t.node_id ~dst:l ~port:digest_port payload
  in
  send ();
  let rec wait tries =
    match Hashtbl.find_opt t.verdicts instance with
    | Some v -> v
    | None ->
      Engine.park (fun w ->
          t.verdict_waiters <- w :: t.verdict_waiters;
          Engine.schedule t.eng
            ~at:(Engine.clock t.eng +. 0.02)
            (fun () -> Engine.wake w));
      if tries > 0 && not (Hashtbl.mem t.verdicts instance) then send ();
      wait (tries + 1)
  in
  wait 0

(* --- Execution --- *)

(* Run the batch's requests concurrently on [workers] executor fibers;
   whole requests are the unit of parallelism. *)
let execute_parallel t (reqs : string array) =
  let n = Array.length reqs in
  if n = 0 then [||]
  else
  let responses = Array.make n "" in
  let next = ref 0 in
  let remaining = ref n in
  let finished = ref None in
  Engine.park (fun w ->
      finished := Some w;
      for _ = 1 to min t.cfg.workers n do
        ignore
          (Engine.spawn t.eng ~node:t.node_id ~name:"eve.exec" (fun () ->
               let rec work () =
                 if !next < n then begin
                   let i = !next in
                   incr next;
                   responses.(i) <-
                     (try t.app.R.App.execute ~request:reqs.(i) with
                     | Engine.Killed as e -> raise e
                     | _ -> "ERR:handler-exception");
                   Obs.Metric.incr t.c_requests;
                   decr remaining;
                   if !remaining = 0 then Engine.wake w;
                   work ()
                 end
               in
               work ()))
      done);
  responses

let execute_serial t (reqs : string array) =
  Array.map
    (fun request ->
      let r =
        try t.app.R.App.execute ~request with
        | Engine.Killed as e -> raise e
        | _ -> "ERR:handler-exception"
      in
      Obs.Metric.incr t.c_requests;
      r)
    reqs

(* Folded per response: [Hashtbl.hash] over the whole array would stop
   after ten strings, and batches hold up to [batch_max]. *)
let response_digest responses =
  string_of_int (Array.fold_left (fun h r -> Hashtbl.hash (h, r)) 0 responses)

let process_batch t (instance, reqs) =
  t.executing <- true;
  Obs.Metric.incr t.c_batches;
  Obs.Metric.add t.c_batched_reqs (Array.length reqs);
  Obs.Histogram.observe t.h_batch_size (float_of_int (Array.length reqs));
  let batch_start = Engine.now () in
  (* Mark the state for rollback (execute-verify requires marked state
     that can be checkpointed, compared and rolled back, §5): a savepoint
     logs the session entries the batch touches, and only the app proper
     is checkpointed. *)
  let undo = R.Session.Table.savepoint t.session in
  Codec.clear t.snap;
  t.inner.R.App.write_checkpoint t.snap;
  let responses = execute_parallel t reqs in
  (* Eve verifies outputs along with application state: conflicting
     requests whose state effects commute still produce divergent
     responses. *)
  let digest = t.app.R.App.digest () ^ "/" ^ response_digest responses in
  let verdict = await_verdict t instance digest in
  let responses =
    match verdict with
    | Ok_batch -> responses
    | Rollback ->
      Obs.Metric.incr t.c_rollbacks;
      undo ();
      t.inner.R.App.read_checkpoint (Codec.source (Codec.contents t.snap));
      execute_serial t reqs
  in
  let sp = Obs.spans t.obs in
  if Obs.Span.enabled sp then
    Obs.Span.complete sp ~cat:"eve" ~pid:t.node_id ~name:"batch"
      ~ts:batch_start
      ~dur:(Engine.now () -. batch_start)
      ();
  (* Leader answers its clients once the batch outcome is final. *)
  (match Hashtbl.find_opt t.inflight_cbs instance with
  | Some cbs when Array.length cbs = Array.length responses ->
    Hashtbl.remove t.inflight_cbs instance;
    Array.iteri
      (fun i cb ->
        Obs.Metric.incr t.c_replies;
        cb (Some responses.(i)))
      cbs
  | Some _ | None -> ());
  t.applied <- max t.applied instance;
  t.executing <- false;
  wake_readers t

let executor_loop t () =
  let rec next_batch () =
    match Queue.take_opt t.exec_queue with
    | Some b -> b
    | None ->
      Engine.park (fun w -> t.exec_waiters <- w :: t.exec_waiters);
      next_batch ()
  in
  let rec loop () =
    process_batch t (next_batch ());
    loop ()
  in
  loop ()

(* --- Mixer (leader) --- *)

(* Greedy batch formation: a request joins the batch only if none of its
   conflict keys are already claimed; [miss_rate] models an imperfect
   mixer that sometimes fails to see a conflict. *)
let form_batch t =
  let claimed = Hashtbl.create 32 in
  let batch = ref [] and skipped = ref [] in
  let count = ref 0 in
  while !count < t.cfg.batch_max && not (Queue.is_empty t.pending) do
    let (req, cb) = Queue.pop t.pending in
    let keys = t.conflict_keys req in
    let blind = t.cfg.miss_rate > 0. && Rng.float t.rng 1.0 < t.cfg.miss_rate in
    if blind || not (List.exists (Hashtbl.mem claimed) keys) then begin
      List.iter (fun k -> Hashtbl.replace claimed k ()) keys;
      batch := (req, cb) :: !batch;
      incr count
    end
    else skipped := (req, cb) :: !skipped
  done;
  (* conflicting requests wait for a later batch, keeping their order *)
  List.iter (fun r -> Queue.push r t.pending) (List.rev !skipped);
  Array.of_list (List.rev !batch)

let spawn_mixer t =
  ignore
    (Engine.spawn t.eng ~node:t.node_id ~name:"eve.mixer" (fun () ->
         while true do
           Engine.sleep t.cfg.mix_interval;
           if t.leader && not (Queue.is_empty t.pending) then begin
             let pax = Option.get t.pax in
             if Paxos.Replica.is_leader pax && not (Paxos.Replica.in_flight pax)
             then begin
               let items = form_batch t in
               if Array.length items > 0 then begin
                 let reqs = Array.map fst items in
                 let instance = Paxos.Replica.next_instance pax in
                 if Paxos.Replica.propose pax (encode_batch reqs) then
                   Hashtbl.replace t.inflight_cbs instance (Array.map snd items)
                 else Array.iter (fun (_, cb) -> cb None) items
               end
             end
           end
         done))

(* A committed batch enters the execute-verify pipeline in log order. *)
let deliver_batch t i v =
  match decode_batch v with
  | reqs ->
    Queue.push (i, reqs) t.exec_queue;
    wake_executor t
  | exception Codec.Decode_error _ -> ()

(* Rolling-upgrade support: a replacement server created over the old
   server's store re-runs the committed prefix through the mixer to
   rebuild app and session state.  Call between [create] and [start]. *)
let replay t = Paxos.Replica.replay_committed t.pstore (deliver_batch t)

(* --- Construction --- *)

let create net rpc cfg ~node ~paxos_store ~conflict_keys factory =
  let eng = Net.engine net in
  let rt = Rexsync.Runtime.create (Par.Backend.of_sim eng) ~node ~slots:1 in
  let api = R.Api.make rt in
  let session =
    R.Session.Table.create (Engine.obs eng) ~stack:"eve" ~node ()
  in
  (* Batches execute their requests in parallel, so two retries of the
     same request inside one batch would race the duplicate check.  The
     per-client conflict key below keeps a client's requests in distinct
     batches, and batches are processed serially — which makes the
     in-execute check deterministic, mirroring the SMR argument. *)
  let inner = factory api in
  let app = R.Session.wrap ~table:session ~dedup_in_execute:true inner in
  let conflict_keys =
    Sched.Conflict.with_session ~obs:(Engine.obs eng) ~subsystem:"eve" ~node
      conflict_keys
  in
  if R.Api.seal api <> [] then
    invalid_arg
      "Eve.create: applications with background timers are not supported by \
       the execute-verify model (batch boundaries are the only \
       consistency-check points, paper §5)";
  let obs = Engine.obs eng in
  let labels = [ ("node", string_of_int node) ] in
  let c name = Obs.counter obs ~subsystem:"eve" ~labels name in
  let t =
    {
      eng;
      net;
      cfg;
      node_id = node;
      pstore = paxos_store;
      app;
      inner;
      session;
      snap = Codec.sink ~initial_capacity:4096 ();
      conflict_keys;
      rng = Rng.split (Engine.rng eng);
      pax = None;
      front = None;
      leader = false;
      pending = Queue.create ();
      inflight_cbs = Hashtbl.create 16;
      exec_queue = Queue.create ();
      exec_waiters = [];
      applied = 0;
      executing = false;
      read_waiters = [];
      collected = Hashtbl.create 64;
      verdicts = Hashtbl.create 64;
      verdict_waiters = [];
      obs;
      c_requests = c "requests_executed";
      c_replies = c "replies_sent";
      c_batches = c "batches";
      c_rollbacks = c "rollbacks";
      c_batched_reqs = c "batched_requests";
      h_batch_size = Obs.histogram obs ~subsystem:"eve" ~labels "batch_size";
    }
  in
  Net.register net ~node ~port:digest_port (fun ~src payload ->
      on_digest t ~src payload);
  Net.register net ~node ~port:verdict_port (fun ~src:_ payload ->
      on_verdict t payload);
  t.front <-
    Some
      (R.Frontend.register rpc ~node ~table:session
         ?admission:
           (if
              cfg.admit_global = 0 && cfg.admit_per_client = 0
              && cfg.admit_queue_soft = 0 && cfg.admit_queue_hard = 0
            then None
            else
              Some
                (R.Frontend.admission ~max_global:cfg.admit_global
                   ~max_per_client:cfg.admit_per_client
                   ~queue_soft:cfg.admit_queue_soft
                   ~queue_hard:cfg.admit_queue_hard
                   ~queue_depth:(fun () -> Queue.length t.pending)
                   ()))
         ~reads:
           {
             R.Frontend.r_peers =
               (fun () ->
                 match t.pax with
                 | Some p -> Paxos.Replica.peers p
                 | None -> t.cfg.replicas);
             r_lease_valid =
               (fun () ->
                 t.leader
                 &&
                 match t.pax with
                 | Some p -> Paxos.Replica.holds_lease p
                 | None -> false);
             r_read_index =
               (fun () ->
                 match t.pax with
                 | Some p -> Paxos.Replica.read_index p
                 | None -> 0);
             r_applied_upto =
               (fun () -> if t.executing then -1 else t.applied);
             r_read_local =
               (fun request cb ->
                 (* Mid-batch state may roll back after a verdict: park
                    until the state is verdict-final again. *)
                 let rec go () =
                   if t.executing then begin
                     Engine.park (fun w ->
                         t.read_waiters <- w :: t.read_waiters);
                     go ()
                   end
                   else cb (Some (t.app.R.App.query ~request))
                 in
                 go ());
             r_lease_unsafe = t.cfg.lease_unsafe;
           }
         {
           R.Frontend.is_leader = (fun () -> t.leader);
           leader_hint =
             (fun () ->
               match t.pax with
               | Some p -> Paxos.Replica.leader_hint p
               | None -> None);
           enqueue = (fun request cb -> Queue.push (request, cb) t.pending);
           query = (fun request -> Some (t.app.R.App.query ~request));
         });
  t

let start t =
  let pax_cfg =
    {
      Paxos.Replica.me = t.node_id;
      peers = t.cfg.replicas;
      heartbeat_period = t.cfg.heartbeat_period;
      election_timeout = t.cfg.election_timeout;
      max_inflight = 1;
      sync_latency = 0.;
      lease_duration = t.cfg.lease_duration;
      lease_drift_bound = t.cfg.lease_drift_bound;
    }
  in
  let cbs =
    {
      Paxos.Replica.on_committed = (fun i v -> deliver_batch t i v);
      on_become_leader = (fun () -> t.leader <- true);
      on_new_leader =
        (fun _ ->
          if t.leader then begin
            t.leader <- false;
            Queue.iter (fun (_, cb) -> cb None) t.pending;
            Queue.clear t.pending;
            (* Batches we proposed may still commit, but a deposed
               leader no longer answers for them: fire their callbacks
               now so the frontend releases its in-flight entries and
               client retries can be served by the new leader. *)
            Hashtbl.iter
              (fun _ cbs -> Array.iter (fun cb -> cb None) cbs)
              t.inflight_cbs;
            Hashtbl.reset t.inflight_cbs
          end);
    }
  in
  let pax = Paxos.Replica.create t.net pax_cfg t.pstore cbs in
  t.pax <- Some pax;
  Paxos.Replica.start pax;
  ignore (Engine.spawn t.eng ~node:t.node_id ~name:"eve.executor" (executor_loop t));
  spawn_mixer t

let submit t request cb =
  if not t.leader then cb None else Queue.push (request, cb) t.pending

let query t request = t.app.R.App.query ~request
