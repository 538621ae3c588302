open Sim
module R = Rex_core
module L = R.Log_server

let digest_port = Net.port "eve.digest"
let verdict_port = Net.port "eve.verdict"

type config = { base : R.Config.t; miss_rate : float }

let default_config ?(workers = 8) ?(miss_rate = 0.) ~replicas () =
  { base = R.Config.make ~workers ~replicas (); miss_rate }

(* The most requests the mixer packs into one batch. *)
let batch_max = 64

type stats = {
  requests_executed : int;
  replies_sent : int;
  batches : int;
  rollbacks : int;
  avg_batch : float;
}

type verdict = Ok_batch | Rollback

type state = {
  env : L.env;
  cfg : config;
  snap : Codec.sink;
      (* [env.inner]'s checkpoint at the start of the current batch *)
  conflict_keys : string -> string list;
  rng : Rng.t;
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
  c_requests : Obs.Metric.counter;
  c_replies : Obs.Metric.counter;
  c_batches : Obs.Metric.counter;
  c_rollbacks : Obs.Metric.counter;
  c_batched_reqs : Obs.Metric.counter;
  h_batch_size : Obs.Histogram.t;
}

type t = state L.t

let stats (t : t) =
  let e = L.state t in
  let batches = Obs.Metric.value e.c_batches in
  {
    requests_executed = Obs.Metric.value e.c_requests;
    replies_sent = Obs.Metric.value e.c_replies;
    batches;
    rollbacks = Obs.Metric.value e.c_rollbacks;
    avg_batch =
      (if batches = 0 then 0.
       else float_of_int (Obs.Metric.value e.c_batched_reqs) /. float_of_int batches);
  }

let wake_all ws = List.iter Engine.wake ws

let wake_verdicts e =
  let ws = e.verdict_waiters in
  e.verdict_waiters <- [];
  wake_all ws

let wake_readers e =
  let ws = e.read_waiters in
  e.read_waiters <- [];
  wake_all ws

let replicas e = e.env.L.cfg.R.Config.replicas

let leader_hint e =
  match e.env.L.leader_hint () with
  | Some l -> l
  | None -> List.hd (replicas e)

let encode_verdict (i, v) =
  Codec.encode
    (fun (i, ok) b ->
      Codec.write_uvarint b i;
      Codec.write_bool b ok)
    (i, v = Ok_batch)

(* --- Leader: verdict decision --- *)

let decide e instance =
  if not (Hashtbl.mem e.verdicts instance) then begin
    let ds = Option.value (Hashtbl.find_opt e.collected instance) ~default:[] in
    let alive =
      List.filter (fun n -> Engine.node_alive e.env.L.eng n) (replicas e)
    in
    if List.length ds >= List.length alive then begin
      let digests = List.map snd ds in
      let v =
        match digests with
        | [] -> Rollback
        | d :: rest -> if List.for_all (( = ) d) rest then Ok_batch else Rollback
      in
      Hashtbl.replace e.verdicts instance v;
      (* [on_digest] consults only [verdicts] from here on *)
      Hashtbl.remove e.collected instance;
      let payload = encode_verdict (instance, v) in
      List.iter
        (fun peer ->
          if peer <> e.env.L.node then
            Net.send e.env.L.net ~src:e.env.L.node ~dst:peer ~port:verdict_port
              payload)
        (replicas e);
      wake_verdicts e
    end
  end

let on_digest e ~src payload =
  let i, d =
    Codec.decode
      (fun s ->
        let i = Codec.read_uvarint s in
        let d = Codec.read_string s in
        (i, d))
      payload
  in
  match Hashtbl.find_opt e.verdicts i with
  | Some v ->
    (* already decided: re-send the verdict to the (late) asker *)
    if src <> e.env.L.node then
      Net.send e.env.L.net ~src:e.env.L.node ~dst:src ~port:verdict_port
        (encode_verdict (i, v))
  | None ->
    let prev = Option.value (Hashtbl.find_opt e.collected i) ~default:[] in
    if not (List.mem_assoc src prev) then
      Hashtbl.replace e.collected i ((src, d) :: prev);
    decide e i

let on_verdict e payload =
  let i, ok =
    Codec.decode
      (fun s ->
        let i = Codec.read_uvarint s in
        let ok = Codec.read_bool s in
        (i, ok))
      payload
  in
  if not (Hashtbl.mem e.verdicts i) then begin
    Hashtbl.replace e.verdicts i (if ok then Ok_batch else Rollback);
    wake_verdicts e
  end

(* Report our digest for a batch to the leader and park until the
   verdict arrives.  Re-reports go to every replica: whichever already
   holds the verdict answers — the replica that decided it may no longer
   be the leader, and a new leader that lost the verdict message would
   otherwise wait forever for digests its peers sent long ago. *)
let await_verdict e instance digest =
  let payload =
    Codec.encode
      (fun (i, d) b ->
        Codec.write_uvarint b i;
        Codec.write_string b d)
      (instance, digest)
  in
  let me = e.env.L.node in
  let send l =
    if l = me then on_digest e ~src:me payload
    else Net.send e.env.L.net ~src:me ~dst:l ~port:digest_port payload
  in
  let leader = leader_hint e in
  send leader;
  let rec wait tries =
    match Hashtbl.find_opt e.verdicts instance with
    | Some v -> v
    | None ->
      Engine.park (fun w ->
          e.verdict_waiters <- w :: e.verdict_waiters;
          Engine.schedule e.env.L.eng
            ~at:(Engine.clock e.env.L.eng +. 0.02)
            (fun () -> Engine.wake w));
      if tries > 0 && not (Hashtbl.mem e.verdicts instance) then begin
        let leader = leader_hint e in
        send leader;
        List.iter
          (fun p -> if p <> me && p <> leader then send p)
          (replicas e)
      end;
      wait (tries + 1)
  in
  wait 0

(* --- Execution --- *)

let execute e request =
  let r =
    try e.env.L.app.R.App.execute ~request with
    | Engine.Killed as ex -> raise ex
    | _ -> "ERR:handler-exception"
  in
  Obs.Metric.incr e.c_requests;
  r

(* Run the batch's requests concurrently on [workers] executor fibers;
   whole requests are the unit of parallelism. *)
let execute_parallel e (reqs : string array) =
  let n = Array.length reqs in
  let responses = Array.make n "" in
  let next = ref 0 in
  let remaining = ref n in
  if n > 0 then
    Engine.park (fun w ->
        for _ = 1 to min e.env.L.cfg.R.Config.workers n do
          ignore
            (Engine.spawn e.env.L.eng ~node:e.env.L.node ~name:"eve.exec"
               (fun () ->
                 let rec work () =
                   if !next < n then begin
                     let i = !next in
                     incr next;
                     responses.(i) <- execute e reqs.(i);
                     decr remaining;
                     if !remaining = 0 then Engine.wake w;
                     work ()
                   end
                 in
                 work ()))
        done);
  responses

(* Folded per response: [Hashtbl.hash] over the whole array would stop
   after ten strings, and batches hold up to [batch_max]. *)
let response_digest responses =
  string_of_int (Array.fold_left (fun h r -> Hashtbl.hash (h, r)) 0 responses)

(* Execute-verify one committed batch.  The proposing leader answers its
   clients once the batch outcome is final — also after it was deposed,
   since the batch has committed. *)
let process_batch e instance items =
  let reqs, cbs =
    List.split
      (List.filter_map
         (function L.Request (r, cb) -> Some (r, cb) | L.Tick _ -> None)
         items)
  in
  let reqs = Array.of_list reqs in
  e.executing <- true;
  Obs.Metric.incr e.c_batches;
  Obs.Metric.add e.c_batched_reqs (Array.length reqs);
  Obs.Histogram.observe e.h_batch_size (float_of_int (Array.length reqs));
  let batch_start = Engine.now () in
  (* Mark the state for rollback (execute-verify requires marked state
     that can be checkpointed, compared and rolled back, §5): a savepoint
     logs the session entries the batch touches, and only the app proper
     is checkpointed. *)
  let undo = R.Session.Table.savepoint e.env.L.session in
  Codec.clear e.snap;
  e.env.L.inner.R.App.write_checkpoint e.snap;
  let responses = execute_parallel e reqs in
  (* Eve verifies outputs along with application state: conflicting
     requests whose state effects commute still produce divergent
     responses. *)
  let digest = e.env.L.app.R.App.digest () ^ "/" ^ response_digest responses in
  let responses =
    match await_verdict e instance digest with
    | Ok_batch -> responses
    | Rollback ->
      Obs.Metric.incr e.c_rollbacks;
      undo ();
      e.env.L.inner.R.App.read_checkpoint
        (Codec.source (Codec.contents e.snap));
      Array.map (execute e) reqs
  in
  let sp = Obs.spans (Engine.obs e.env.L.eng) in
  if Obs.Span.enabled sp then
    Obs.Span.complete sp ~cat:"eve" ~pid:e.env.L.node ~name:"batch"
      ~ts:batch_start
      ~dur:(Engine.now () -. batch_start)
      ();
  List.iteri
    (fun i cb ->
      Option.iter
        (fun cb ->
          Obs.Metric.incr e.c_replies;
          cb (Some responses.(i)))
        cb)
    cbs;
  e.applied <- max e.applied instance;
  e.executing <- false;
  wake_readers e

(* Mid-batch state may roll back after a verdict: park until the state
   is verdict-final again. *)
let rec gate_read e request =
  if e.executing then begin
    Engine.park (fun w -> e.read_waiters <- w :: e.read_waiters);
    gate_read e request
  end

(* --- Mixer (leader) --- *)

(* Greedy batch formation: a request joins the batch only if none of its
   conflict keys are already claimed; [miss_rate] models an imperfect
   mixer that sometimes fails to see a conflict. *)
let form_batch e pending =
  let claimed = Hashtbl.create 32 in
  let batch = ref [] and skipped = ref [] in
  let count = ref 0 in
  while !count < batch_max && not (Queue.is_empty pending) do
    let (req, cb) = Queue.pop pending in
    let keys = e.conflict_keys req in
    let blind = e.cfg.miss_rate > 0. && Rng.float e.rng 1.0 < e.cfg.miss_rate in
    if blind || not (List.exists (Hashtbl.mem claimed) keys) then begin
      List.iter (fun k -> Hashtbl.replace claimed k ()) keys;
      batch := (req, cb) :: !batch;
      incr count
    end
    else skipped := (req, cb) :: !skipped
  done;
  (* conflicting requests wait for a later batch, keeping their order *)
  List.iter (fun r -> Queue.push r pending) (List.rev !skipped);
  List.rev !batch

(* --- Construction --- *)

let executor cfg conflict_keys (env : L.env) =
  if env.n_timers > 0 then
    invalid_arg
      "Eve.create: applications with background timers are not supported by \
       the execute-verify model (batch boundaries are the only \
       consistency-check points, paper §5)";
  let obs = Engine.obs env.eng in
  let labels = [ ("node", string_of_int env.node) ] in
  let c name = Obs.counter obs ~subsystem:"eve" ~labels name in
  let e =
    {
      env;
      cfg;
      snap = Codec.sink ~initial_capacity:4096 ();
      (* Batches execute their requests in parallel, so two retries of
         the same request inside one batch would race the duplicate
         check.  The per-client conflict key keeps a client's requests
         in distinct batches, and batches are processed serially — which
         makes the in-execute check deterministic. *)
      conflict_keys =
        Sched.Conflict.with_session ~obs ~subsystem:"eve" ~node:env.node
          conflict_keys;
      rng = Rng.split (Engine.rng env.eng);
      applied = 0;
      executing = false;
      read_waiters = [];
      collected = Hashtbl.create 64;
      verdicts = Hashtbl.create 64;
      verdict_waiters = [];
      c_requests = c "requests_executed";
      c_replies = c "replies_sent";
      c_batches = c "batches";
      c_rollbacks = c "rollbacks";
      c_batched_reqs = c "batched_requests";
      h_batch_size = Obs.histogram obs ~subsystem:"eve" ~labels "batch_size";
    }
  in
  Net.register env.net ~node:env.node ~port:digest_port (fun ~src payload ->
      on_digest e ~src payload);
  Net.register env.net ~node:env.node ~port:verdict_port (fun ~src:_ payload ->
      on_verdict e payload);
  ( e,
    {
      L.deliver = process_batch e;
      gate_read = gate_read e;
      applied = (fun () -> if e.executing then -1 else e.applied);
      form_batch = form_batch e;
      (* The per-batch snapshot and parallel mix need batches: the next
         one gathers what arrived while this one ran. *)
      await_execution = true;
    } )

let create net rpc cfg ~node ~paxos_store ~conflict_keys factory =
  L.create net rpc cfg.base ~node ~paxos_store ~stack:"eve"
    (executor cfg conflict_keys) factory

let start = L.start
let replay = L.replay
let node = L.node
let is_primary = L.is_primary
let session_table = L.session_table
let frontend = L.frontend
let submit = L.submit
let query = L.query
let app_digest = L.app_digest
