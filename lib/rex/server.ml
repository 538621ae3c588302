open Sim
module Runtime = Rexsync.Runtime

let flow_port = Net.port "rex.flow"
let fetch_ckpt_port = Net.port "rex.fetch_ckpt"
let push_ckpt_port = Net.port "rex.push_ckpt"

(* Timer slots beyond the workers; a fixed budget keeps the slot count —
   and hence trace arity — independent of when the factory runs. *)
let timer_slot_budget = 8

type role = Primary | Secondary

type exec = {
  gen : int;
  rt : Runtime.t;
  app : App.t;
  timers : Api.timer_spec array;
}

type pending_ckpt = { pc_seq : int; pc_cut : Trace.Cut.t; pc_instance : int }

type stats = {
  requests_executed : int;
  replies_sent : int;
  queries_served : int;
  proposals_sent : int;
  proposal_bytes : int;
  request_payload_bytes : int;
  checkpoints_written : int;
  rollbacks : int;
}

type t = {
  eng : Engine.t;
  net : Net.t;
  rpc : Rpc.t;
  cfg : Config.t;
  node_id : int;
  factory : App.factory;
  pstore : Paxos.Store.t;
  disk : Checkpoint.Disk.t;
  slots : int;
  mutable agree : Agreement.t option;
  make_agreement : (t -> Agreement.callbacks -> Agreement.t) option;
  mutable exec : exec option;
  mutable role_ : role;
  mutable gen : int;
  mutable rebuilding : bool;
  (* run queue (primary); entries carry their submit time for the
     request-latency histogram *)
  queue : (string * float * (string option -> unit)) Queue.t;
  mutable queue_waiters : Engine.waker list;
  replies : Frontend.Replies.t;
  (* lease-path reads answered from speculative primary state, held until
     the recorded prefix they observed commits (same gate as [replies],
     but keyed by whole cuts — reads have no event of their own) *)
  mutable pending_reads : (Trace.Cut.t * string * (string option -> unit)) list;
  (* client-facing protocol surface; carried for history taps (lib/check) *)
  mutable front : Frontend.t option;
  (* client sessions: replicated via the execution path (Session.wrap),
     consulted at intake by the frontend *)
  session : Session.Table.t;
  (* consensus bookkeeping *)
  mutable proposed_cut : Trace.Cut.t;
  (* extraction cursor, at [proposed_cut]: a proposal costs O(events and
     edges since the last one) *)
  mutable cursor : Trace.Delta.cursor option;
  (* a request or timer callback completed beyond [proposed_cut] *)
  mutable progress : bool;
  mutable proposing : bool;  (* guards [propose_ready] against re-entry *)
  (* the primary's proposals not yet seen committed, oldest first: the
     encoded value and its delta's upto *)
  inflight : (string * Trace.Cut.t) Queue.t;
  mutable committed_cut_ : Trace.Cut.t;
  mutable committed_instance : int;
  (* checkpointing: primary side *)
  mutable ckpt_flag : bool;
  mutable ckpt_paused : int;
  mutable ckpt_seq : int;
  mutable ckpt_pending_proposal : (int * Trace.Cut.t) option;
  mutable ckpt_resume_waiters : Engine.waker list;
  mutable ckpt_kick : Engine.waker list;
  (* checkpointing: secondary side *)
  mutable ckpt_barrier : pending_ckpt option;
  mutable ckpt_arrived : int;
  mutable ckpt_done_waiters : Engine.waker list;
  (* committed_upto at the last pushed-checkpoint absorption; two
     consecutive blobs with no progress below the blob's base mean the
     entries we still need were GC'd cluster-wide and we must rebuild
     from the blob instead of waiting for a Learn that can never
     succeed. *)
  mutable ckpt_push_upto : int;
  (* the last snapshot's size plus an eighth: the next one's sink starts
     there, so it rarely grows *)
  mutable ckpt_size_hint : int;
  (* flow control *)
  flow : Frontend.Flow.t;
  (* observability (subsystem "rex", labelled by node) *)
  obs : Obs.t;
  c_requests : Obs.Metric.counter;
  c_replies : Obs.Metric.counter;
  c_queries : Obs.Metric.counter;
  c_proposals : Obs.Metric.counter;
  c_proposal_bytes : Obs.Metric.counter;
  c_request_bytes : Obs.Metric.counter;
  c_ckpts : Obs.Metric.counter;
  c_ckpt_bytes : Obs.Metric.counter;
  c_rollbacks : Obs.Metric.counter;
  c_flow_stalls : Obs.Metric.counter;
  c_decode_errors : Obs.Metric.counter;
  h_req_lat_primary : Obs.Histogram.t;
  h_req_lat_secondary : Obs.Histogram.t;
  h_flow_stall : Obs.Histogram.t;
  mutable diverged : string option;
}

let node t = t.node_id
let session_table t = t.session

let frontend t =
  match t.front with
  | Some f -> f
  | None -> invalid_arg "Server.frontend: not registered"
let role t = t.role_
let is_primary t = t.role_ = Primary
let committed_cut t = t.committed_cut_
let queue_length t = Queue.length t.queue
let idle_workers t = List.length t.queue_waiters
let divergence t = t.diverged
let agreement t = Option.get t.agree

(* Current replica-group membership: dynamic once the agreement layer
   has applied committed config entries, the constructed list before
   [start].  Checkpoint pushes, flow reports and quorum reads all route
   over this so they track live reconfiguration. *)
let peers t =
  match t.agree with
  | Some a -> a.Agreement.peers ()
  | None -> t.cfg.Config.replicas

let the_exec t =
  match t.exec with
  | Some e -> e
  | None -> invalid_arg "Rex.Server: not started"

let runtime t = (the_exec t).rt
let app_digest t = (the_exec t).app.App.digest ()
let runtime_stats t = Runtime.stats (runtime t)

let executed_cut t =
  let e = the_exec t in
  match Runtime.mode e.rt with
  | Runtime.Replay -> Runtime.executed_cut e.rt
  | Runtime.Record | Runtime.Native -> Runtime.recorded_cut e.rt

(* [Trace.Cut.leq (executed_cut t) cut], allocating no cut while
   recording: the lease-read gate asks it once per read. *)
let executed_leq t cut =
  let e = the_exec t in
  match Runtime.mode e.rt with
  | Runtime.Replay -> Trace.Cut.leq (Runtime.executed_cut e.rt) cut
  | Runtime.Record | Runtime.Native -> Runtime.recorded_leq e.rt cut

let divergence_report t =
  match (t.diverged, t.exec) with
  | Some msg, Some exec ->
    let rt = exec.rt in
    let dot =
      Render.window_to_dot
        ~resource_name:(Runtime.resource_name rt)
        (Runtime.trace rt)
        ~center:(Runtime.executed_cut rt)
        ~radius:6
    in
    Some (msg ^ "\n" ^ dot)
  | _ -> None

(* Thin view over the registry counters so existing callers and tests keep
   working; the registry itself is what the exporters walk. *)
let stats t =
  {
    requests_executed = Obs.Metric.value t.c_requests;
    replies_sent = Obs.Metric.value t.c_replies;
    queries_served = Obs.Metric.value t.c_queries;
    proposals_sent = Obs.Metric.value t.c_proposals;
    proposal_bytes = Obs.Metric.value t.c_proposal_bytes;
    request_payload_bytes = Obs.Metric.value t.c_request_bytes;
    checkpoints_written = Obs.Metric.value t.c_ckpts;
    rollbacks = Obs.Metric.value t.c_rollbacks;
  }

let wake_all waiters = List.iter Engine.wake waiters

let wake_queue t =
  let ws = t.queue_waiters in
  t.queue_waiters <- [];
  wake_all ws

(* A request needs one worker: wake the one parked last.  A worker that
   takes a request and leaves more behind wakes the next ([pop_request]). *)
let wake_one t =
  match t.queue_waiters with
  | w :: rest ->
    t.queue_waiters <- rest;
    Engine.wake w
  | [] -> ()

let wake_flow t = Frontend.Flow.wake t.flow

let wake_ckpt_resume t =
  let ws = t.ckpt_resume_waiters in
  t.ckpt_resume_waiters <- [];
  wake_all ws

let wake_ckpt_kick t =
  let ws = t.ckpt_kick in
  t.ckpt_kick <- [];
  wake_all ws

let wake_ckpt_done t =
  let ws = t.ckpt_done_waiters in
  t.ckpt_done_waiters <- [];
  wake_all ws

let active_slots t exec = t.cfg.Config.workers + Array.length exec.timers

let req_latency t =
  match t.role_ with
  | Primary -> t.h_req_lat_primary
  | Secondary -> t.h_req_lat_secondary

let release_replies t =
  let ready = Frontend.Replies.release t.replies ~upto:t.committed_cut_ in
  let now = Engine.clock t.eng in
  let h = req_latency t in
  List.iter
    (fun (t0, resp, cb) ->
      Obs.Metric.incr t.c_replies;
      Obs.Histogram.observe h (now -. t0);
      let sp = Obs.spans t.obs in
      if Obs.Span.enabled sp then
        Obs.Span.complete sp ~cat:"rex" ~pid:t.node_id ~name:"request"
          ~ts:t0 ~dur:(now -. t0) ();
      cb (Some resp))
    ready;
  let ready_reads, waiting_reads =
    List.partition
      (fun (cut, _, _) -> Trace.Cut.leq cut t.committed_cut_)
      t.pending_reads
  in
  t.pending_reads <- waiting_reads;
  List.iter (fun (_, resp, cb) -> cb (Some resp)) ready_reads

let drop_client_state t =
  List.iter (fun (_, _, cb) -> cb None) (Frontend.Replies.drop t.replies);
  List.iter (fun (_, _, cb) -> cb None) t.pending_reads;
  t.pending_reads <- [];
  Queue.iter (fun (_, _, cb) -> cb None) t.queue;
  Queue.clear t.queue

(* --- Flow control (paper §6.3: the primary waits for live secondaries) --- *)

let flow_ok t exec = Frontend.Flow.ok t.flow ~mine:(Runtime.recorded_total exec.rt)

let current t (exec : exec) = exec.gen = t.gen && t.diverged = None

(* --- Proposer (primary) --- *)

let propose t exec agree =
  let tr = Runtime.trace exec.rt in
  let upto = Trace.end_cut tr in
  let cursor =
    match t.cursor with
    | Some c -> c
    | None ->
      let c = Trace.Delta.cursor tr ~base:t.proposed_cut in
      t.cursor <- Some c;
      c
  in
  let ckpt = t.ckpt_pending_proposal in
  let encoded = Proposal.encode_next tr cursor ~upto ckpt in
  let prev_cut = t.proposed_cut and progress = t.progress in
  (* Registered before [propose] runs: a one-replica group commits inside
     it. *)
  Queue.push (encoded, upto) t.inflight;
  t.proposed_cut <- upto;
  t.progress <- false;
  t.ckpt_pending_proposal <- None;
  if agree.Agreement.propose encoded then begin
    Obs.Metric.incr t.c_proposals;
    Obs.Metric.add t.c_proposal_bytes (String.length encoded)
  end
  else begin
    let keep =
      Queue.fold (fun acc p -> if fst p == encoded then acc else p :: acc) []
        t.inflight
    in
    Queue.clear t.inflight;
    List.iter (fun p -> Queue.push p t.inflight) (List.rev keep);
    (* the cursor moved past [prev_cut]: recreate it there next time *)
    t.cursor <- None;
    t.proposed_cut <- prev_cut;
    t.progress <- progress;
    t.ckpt_pending_proposal <- ckpt
  end

(* Propose the trace beyond [proposed_cut] once it holds reply-bearing
   progress, a completed request or timer callback or a checkpoint cut,
   and the agreement layer takes another value (DESIGN.md §19).  Called
   after each of those, when one of our proposals commits, at promotion
   and when a held membership change lets go; never on a clock. *)
let propose_ready t =
  match (t.exec, t.agree) with
  | Some exec, Some agree when not t.proposing ->
    t.proposing <- true;
    if
      current t exec && t.role_ = Primary && (not t.ckpt_flag)
      && (t.progress || t.ckpt_pending_proposal <> None)
      && agree.Agreement.can_propose ()
    then propose t exec agree;
    t.proposing <- false
  | _ -> ()

let note_progress t =
  t.progress <- true;
  propose_ready t

(* The agree stage holds the proposer until the config entry is
   delivered (see [Agreement.reconfig]). *)
let reconfig t new_peers =
  t.role_ = Primary
  &&
  let g = t.gen in
  (agreement t).Agreement.reconfig new_peers
    ~live:(fun () -> t.role_ = Primary && t.gen = g)
    ~release:(fun () -> propose_ready t)

(* --- Checkpoint: secondary barrier --- *)

let ckpt_arrive t exec seq =
  match t.ckpt_barrier with
  | Some pc when pc.pc_seq = seq ->
    t.ckpt_arrived <- t.ckpt_arrived + 1;
    if t.ckpt_arrived >= active_slots t exec then begin
      (* Every slot is paused at its mark: the state is quiescent. *)
      let ck_start = Engine.now () in
      let sink = Codec.sink ~initial_capacity:t.ckpt_size_hint () in
      exec.app.App.write_checkpoint sink;
      t.ckpt_size_hint <- max 4096 (Codec.length sink * 9 / 8);
      (* Serializing + writing the snapshot stalls this replica's replay,
         which the flow-control window turns into the primary-side dip of
         Fig. 10. *)
      Engine.work
        (float_of_int (Codec.length sink) *. t.cfg.Config.ckpt_byte_cost);
      let blob =
        {
          Checkpoint.seq = pc.pc_seq;
          instance = pc.pc_instance;
          cut = pc.pc_cut;
          versions = Runtime.version_snapshot exec.rt;
          app_bytes = Codec.contents sink;
        }
      in
      Checkpoint.Disk.save t.disk blob;
      (match t.agree with
      | Some a -> a.Agreement.truncate_below pc.pc_instance
      | None -> ());
      (* The saved checkpoint subsumes everything at or below its cut:
         drop that trace prefix too (the in-memory twin of the log
         truncation above).  Every slot is parked at its mark, so the
         cut is fully executed here. *)
      Runtime.compact_trace exec.rt ~upto:pc.pc_cut;
      Obs.Metric.incr t.c_ckpts;
      Obs.Metric.add t.c_ckpt_bytes (String.length blob.app_bytes);
      let sp = Obs.spans t.obs in
      if Obs.Span.enabled sp then
        Obs.Span.complete sp ~cat:"ckpt" ~pid:t.node_id ~name:"checkpoint"
          ~ts:ck_start
          ~dur:(Engine.now () -. ck_start)
          ();
      t.ckpt_barrier <- None;
      t.ckpt_arrived <- 0;
      wake_ckpt_done t;
      (* Copy the checkpoint to the other replicas in the background
         (§3.3) so every node — the primary included — can roll back or
         recover locally. *)
      let encoded = Checkpoint.encode blob in
      ignore
        (Engine.spawn t.eng ~node:t.node_id ~name:"rex.ckpt-push" (fun () ->
             List.iter
               (fun peer ->
                 if peer <> t.node_id then
                   Net.send t.net ~src:t.node_id ~dst:peer ~port:push_ckpt_port
                     encoded)
               (peers t)))
    end
    else
      while
        match t.ckpt_barrier with
        | Some pc' when pc'.pc_seq = seq -> true
        | Some _ | None -> false
      do
        Engine.park (fun w -> t.ckpt_done_waiters <- w :: t.ckpt_done_waiters)
      done
  | Some _ | None -> () (* stale mark from before our checkpoint *)

(* --- Checkpoint: primary pause (paper §3.3) --- *)

let ckpt_pause_if_needed t exec =
  if t.ckpt_flag then begin
    ignore
      (Runtime.record exec.rt ~kind:Event.Ckpt_mark ~resource:t.ckpt_seq []);
    t.ckpt_paused <- t.ckpt_paused + 1;
    if t.ckpt_paused >= active_slots t exec then begin
      (* All slots are at a request boundary: this trace end is the cut. *)
      t.ckpt_pending_proposal <-
        Some (t.ckpt_seq, Trace.end_cut (Runtime.trace exec.rt));
      t.ckpt_flag <- false;
      t.ckpt_paused <- 0;
      wake_ckpt_resume t;
      propose_ready t
    end
    else
      while t.ckpt_flag do
        Engine.park (fun w ->
            t.ckpt_resume_waiters <- w :: t.ckpt_resume_waiters)
      done
  end

let request_checkpoint t =
  if t.role_ = Primary && (not t.ckpt_flag) && t.exec <> None then begin
    t.ckpt_seq <- t.ckpt_seq + 1;
    t.ckpt_flag <- true;
    wake_queue t;
    wake_flow t;
    wake_ckpt_kick t
  end

(* --- Worker slots --- *)

(* Blocking request intake with checkpoint-pause and flow-control gates. *)
let rec pop_request t exec =
  if not (current t exec) || t.role_ <> Primary then None
  else begin
    ckpt_pause_if_needed t exec;
    if not (flow_ok t exec) then begin
      Obs.Metric.incr t.c_flow_stalls;
      let t0 = Engine.now () in
      Frontend.Flow.park t.flow;
      let stalled = Engine.now () -. t0 in
      Obs.Histogram.observe t.h_flow_stall stalled;
      let sp = Obs.spans t.obs in
      if Obs.Span.enabled sp then
        Obs.Span.complete sp ~cat:"rex" ~pid:t.node_id ~name:"flow_stall"
          ~ts:t0 ~dur:stalled ();
      pop_request t exec
    end
    else
      match Queue.take_opt t.queue with
      | Some r ->
        if not (Queue.is_empty t.queue) then wake_one t;
        Some r
      | None ->
        Engine.park (fun w -> t.queue_waiters <- w :: t.queue_waiters);
        pop_request t exec
  end

let execute_guarded t exec request =
  match exec.app.App.execute ~request with
  | resp -> resp
  | exception ((Runtime.Divergence _ | Runtime.Replay_interrupted | Engine.Killed) as e) ->
    raise e
  | exception exn ->
    Logs.warn (fun m ->
        m "rex[%d]: handler raised %s" t.node_id (Printexc.to_string exn));
    "ERR:handler-exception"

(* Result checking (§5): the primary logs a digest of each response in
   the request's completion event; secondaries compare it against the
   response their own replay computed, catching divergences that version
   checking alone would surface much later. *)
let response_digest resp =
  let b = Codec.sink ~initial_capacity:8 () in
  Codec.write_uvarint b (Hashtbl.hash resp);
  Codec.contents b

let record_iteration t exec =
  match pop_request t exec with
  | None -> ()
  | Some (request, t0, cb) ->
    ignore
      (Runtime.record exec.rt ~kind:Event.Req_start ~resource:0
         ~payload:request []);
    Obs.Metric.add t.c_request_bytes (String.length request);
    let exec_start = Engine.now () in
    let resp = execute_guarded t exec request in
    let src =
      Runtime.record exec.rt ~kind:Event.Req_end ~resource:0
        ~payload:(response_digest resp) []
    in
    Obs.Metric.incr t.c_requests;
    let sp = Obs.spans t.obs in
    if Obs.Span.enabled sp then
      Obs.Span.complete sp ~cat:"rex" ~pid:t.node_id ~tid:(Engine.self ())
        ~name:"execute" ~ts:exec_start
        ~dur:(Engine.now () -. exec_start)
        ();
    Frontend.Replies.add t.replies ~id:(Runtime.source_id src) ~t0 ~resp ~cb;
    note_progress t

let replay_iteration t exec =
  match Runtime.await_next exec.rt with
  | `Interrupted -> raise Runtime.Replay_interrupted
  | `Record_now -> () (* promotion: the main loop re-dispatches on mode *)
  | `Event e -> (
    match e.Event.kind with
    | Event.Req_start ->
      (* Dispatch events carry no incoming causal edges. *)
      Runtime.complete exec.rt e;
      let resp = execute_guarded t exec e.payload in
      (match Runtime.mode exec.rt with
      | Runtime.Replay -> (
        match Runtime.take exec.rt ~kinds:[ Event.Req_end ] ~resource:0 with
        | `Event e2 ->
          if
            t.cfg.Config.check_versions && e2.payload <> ""
            && e2.payload <> response_digest resp
          then
            raise
              (Runtime.Divergence
                 (Fmt.str
                    "rex[%d]: slot %d computed a different response than the                      primary for %S (result checking, §5)"
                    t.node_id e.id.slot
                    (String.sub e.payload 0 (min 40 (String.length e.payload)))))
          else Runtime.complete exec.rt e2
        | `Record_now ->
          ignore
            (Runtime.record exec.rt ~kind:Event.Req_end ~resource:0
               ~payload:(response_digest resp) []);
          note_progress t)
      | Runtime.Record | Runtime.Native ->
        (* Promoted mid-request: finish it as the new primary. *)
        ignore
          (Runtime.record exec.rt ~kind:Event.Req_end ~resource:0
             ~payload:(response_digest resp) []);
        note_progress t);
      Obs.Metric.incr t.c_requests
    | Event.Ckpt_mark ->
      Runtime.complete exec.rt e;
      ckpt_arrive t exec e.resource
    | _ ->
      raise
        (Runtime.Divergence
           (Fmt.str "rex[%d]: worker slot %d found unexpected %s in trace"
              t.node_id e.id.slot
              (Event.kind_to_string e.kind))))

let worker_loop t exec slot () =
  Runtime.bind_slot exec.rt slot;
  let rec loop () =
    if current t exec then begin
      (match Runtime.mode exec.rt with
      | Runtime.Record -> record_iteration t exec
      | Runtime.Replay -> replay_iteration t exec
      | Runtime.Native -> ());
      loop ()
    end
  in
  (try loop () with
  | Runtime.Divergence msg -> t.diverged <- Some msg
  | Runtime.Replay_interrupted -> ());
  Runtime.unbind_slot exec.rt

(* --- Timer slots (background tasks, e.g. compaction) --- *)

(* Wait out the timer period, but stay responsive to checkpoint pauses
   and teardown. *)
let timer_wait t exec interval =
  let deadline = Engine.now () +. interval in
  let rec wait () =
    if not (current t exec) then ()
    else begin
      ckpt_pause_if_needed t exec;
      let now = Engine.now () in
      if now < deadline then begin
        Engine.park (fun w ->
            t.ckpt_kick <- w :: t.ckpt_kick;
            Engine.schedule t.eng ~at:deadline (fun () -> Engine.wake w));
        wait ()
      end
    end
  in
  wait ()

let timer_record_iteration t exec (spec : Api.timer_spec) =
  timer_wait t exec spec.t_interval;
  if current t exec && Runtime.mode exec.rt = Runtime.Record then begin
    ignore
      (Runtime.record exec.rt ~kind:Event.Timer_fire ~resource:0
         ~payload:spec.t_name []);
    spec.t_callback ();
    (* after the callback, so the proposal carries what it recorded *)
    note_progress t
  end

let timer_replay_iteration t exec (spec : Api.timer_spec) =
  match Runtime.await_next exec.rt with
  | `Interrupted -> raise Runtime.Replay_interrupted
  | `Record_now -> ()
  | `Event e -> (
    match e.Event.kind with
    | Event.Timer_fire ->
      Runtime.complete exec.rt e;
      spec.t_callback ()
    | Event.Ckpt_mark ->
      Runtime.complete exec.rt e;
      ckpt_arrive t exec e.resource
    | _ ->
      raise
        (Runtime.Divergence
           (Fmt.str "rex[%d]: timer slot %d found unexpected %s" t.node_id
              e.id.slot
              (Event.kind_to_string e.kind))))

let timer_loop t exec slot (spec : Api.timer_spec) () =
  Runtime.bind_slot exec.rt slot;
  let rec loop () =
    if current t exec then begin
      (match Runtime.mode exec.rt with
      | Runtime.Record -> timer_record_iteration t exec spec
      | Runtime.Replay -> timer_replay_iteration t exec spec
      | Runtime.Native -> ());
      loop ()
    end
  in
  (try loop () with
  | Runtime.Divergence msg -> t.diverged <- Some msg
  | Runtime.Replay_interrupted -> ());
  Runtime.unbind_slot exec.rt

let spawn_slots t exec =
  for slot = 0 to t.cfg.Config.workers - 1 do
    ignore
      (Engine.spawn t.eng ~node:t.node_id
         ~name:(Printf.sprintf "rex.worker%d" slot)
         (worker_loop t exec slot))
  done;
  Array.iteri
    (fun i spec ->
      ignore
        (Engine.spawn t.eng ~node:t.node_id
           ~name:(Printf.sprintf "rex.timer.%s" spec.Api.t_name)
           (timer_loop t exec (t.cfg.Config.workers + i) spec)))
    exec.timers

(* --- Secondary flow reporting --- *)

(* How often a secondary reports its replay progress to the primary. *)
let flow_report_interval = 2e-3

let spawn_flow_reporter t exec =
  ignore
    (Engine.spawn t.eng ~node:t.node_id ~name:"rex.flow" (fun () ->
         while current t exec do
           Engine.sleep flow_report_interval;
           if current t exec && t.role_ = Secondary then begin
             let count =
               Array.fold_left ( + ) 0
                 (Trace.Cut.to_array (Runtime.executed_cut exec.rt))
             in
             let b = Codec.sink ~initial_capacity:16 () in
             Codec.write_uvarint b count;
             List.iter
               (fun peer ->
                 if peer <> t.node_id then
                   Net.send t.net ~src:t.node_id ~dst:peer ~port:flow_port
                     (Codec.contents b))
               (peers t)
           end
         done))

(* --- Checkpoint policy timer (primary) --- *)

let spawn_ckpt_policy t exec =
  match t.cfg.Config.checkpoint_interval with
  | None -> ()
  | Some interval ->
    ignore
      (Engine.spawn t.eng ~node:t.node_id ~name:"rex.ckpt-policy" (fun () ->
           while current t exec && t.role_ = Primary do
             Engine.sleep interval;
             if current t exec && t.role_ = Primary then request_checkpoint t
           done))

(* --- Building / rebuilding the execution context --- *)

(* The delta goes into the trace as it is decoded, so an undecodable
   value may leave part of it there: the replica stops as diverged. *)
let apply_committed t exec instance value =
  match Proposal.apply (Runtime.trace exec.rt) value with
  | exception Codec.Decode_error msg ->
    Obs.Metric.incr t.c_decode_errors;
    t.diverged <-
      Some
        (Fmt.str "rex[%d]: undecodable committed value at instance %d: %s"
           t.node_id instance msg)
  | result -> (
    t.committed_instance <- instance;
    match result with
    | Ok (upto, ckpt) ->
      t.committed_cut_ <- upto;
      (match ckpt with
      | Some (seq, cut) ->
        let have =
          match Checkpoint.Disk.latest t.disk with
          | Some c -> c.seq
          | None -> 0
        in
        if seq > have then begin
          t.ckpt_barrier <- Some { pc_seq = seq; pc_cut = cut; pc_instance = instance };
          t.ckpt_seq <- max t.ckpt_seq seq
        end
      | None -> ());
      Runtime.feed_progress exec.rt
    | Error msg ->
      t.diverged <-
        Some (Fmt.str "rex[%d]: committed delta misaligned: %s" t.node_id msg))

let build_exec t =
  t.rebuilding <- true;
  t.gen <- t.gen + 1;
  (match t.exec with
  | Some old -> Runtime.interrupt_replay old.rt
  | None -> ());
  wake_queue t;
  wake_flow t;
  wake_ckpt_resume t;
  wake_ckpt_kick t;
  wake_ckpt_done t;
  t.ckpt_flag <- false;
  t.ckpt_paused <- 0;
  t.ckpt_pending_proposal <- None;
  t.ckpt_barrier <- None;
  t.ckpt_arrived <- 0;
  let ck = Checkpoint.Disk.latest t.disk in
  let base = Option.map (fun c -> c.Checkpoint.cut) ck in
  let rt =
    Runtime.create ~reduce_edges:t.cfg.Config.reduce_edges
      ~partial_order:t.cfg.Config.partial_order
      ~check_versions:t.cfg.Config.check_versions
      ~record_cost:t.cfg.Config.record_cost ?base (Par.Backend.of_sim t.eng) ~node:t.node_id
      ~slots:t.slots
  in
  Runtime.set_mode rt Runtime.Replay;
  let api = Api.make rt in
  (* The session table is part of the replicated state this context is
     about to rebuild: start empty and let the checkpoint (below) and
     committed-trace replay repopulate it.  [dedup_in_execute] stays off
     for Rex — replay must re-execute exactly what was recorded; the
     frontend's intake check suffices because promotion replays the
     committed trace to its end before accepting requests. *)
  Session.Table.clear t.session;
  let app =
    Session.wrap ~table:t.session ~dedup_in_execute:false (t.factory api)
  in
  let timers = Array.of_list (Api.seal api) in
  if Array.length timers > timer_slot_budget then
    invalid_arg "Rex.Server: too many timers (budget is 8)";
  (match ck with
  | Some c ->
    app.App.read_checkpoint (Codec.source c.app_bytes);
    Runtime.restore_versions rt c.versions;
    t.ckpt_seq <- max t.ckpt_seq c.seq;
    t.committed_cut_ <- c.cut;
    (* The checkpoint subsumes the log prefix up to its instance; a
       rejoiner behind its peers' GC horizon must not wait for entries
       that no longer exist anywhere. *)
    (match t.agree with
    | Some a -> a.Agreement.fast_forward (c.instance - 1)
    | None -> ())
  | None -> t.committed_cut_ <- Trace.Cut.zero ~slots:t.slots);
  let exec = { gen = t.gen; rt; app; timers } in
  t.exec <- Some exec;
  (* Re-apply the committed history this replica already knows. *)
  (match t.agree with
  | None -> ()
  | Some agree ->
    let from_i = match ck with Some c -> c.instance | None -> 1 in
    for i = max 1 from_i to agree.Agreement.committed_upto () do
      match agree.Agreement.committed i with
      | Some v -> apply_committed t exec i v
      | None -> ()
    done);
  spawn_slots t exec;
  spawn_flow_reporter t exec;
  t.rebuilding <- false;
  exec

(* --- Role transitions --- *)

let demote t ~reason =
  if t.role_ = Primary then begin
    Logs.info (fun m -> m "rex[%d]: demoting (%s)" t.node_id reason);
    t.role_ <- Secondary;
    Obs.Metric.incr t.c_rollbacks;
    t.gen <- t.gen + 1;
    (* invalidate old slots immediately *)
    drop_client_state t;
    t.rebuilding <- true;
    ignore
      (Engine.spawn t.eng ~node:t.node_id ~name:"rex.demote" (fun () ->
           ignore (build_exec t)))
  end

let promote t =
  let g = t.gen in
  ignore
    (Engine.spawn t.eng ~node:t.node_id ~name:"rex.promote" (fun () ->
         match t.exec with
         | Some exec when exec.gen = g && t.gen = g ->
           (* Replay the committed trace to its end before leading
              (§3.2: promotion to primary). *)
           let rec wait_caught_up () =
             if t.gen = g && t.diverged = None then
               if
                 Trace.Cut.equal
                   (Runtime.executed_cut exec.rt)
                   (Runtime.recorded_cut exec.rt)
               then ()
               else begin
                 Engine.sleep 2e-4;
                 wait_caught_up ()
               end
           in
           wait_caught_up ();
           if t.gen = g && t.diverged = None then begin
             Runtime.set_mode exec.rt Runtime.Record;
             Runtime.feed_progress exec.rt;
             t.role_ <- Primary;
             t.proposed_cut <- Runtime.recorded_cut exec.rt;
             t.cursor <- None;
             t.progress <- false;
             Queue.clear t.inflight;
             Frontend.Flow.reset t.flow;
             spawn_ckpt_policy t exec;
             Logs.info (fun m -> m "rex[%d]: promoted to primary" t.node_id);
             propose_ready t
           end
         | Some _ | None -> ()))

let primary_committed t exec instance upto =
  t.committed_instance <- instance;
  if Runtime.holds exec.rt upto then begin
    (* our own proposal: the trace already holds it *)
    t.committed_cut_ <- upto;
    release_replies t;
    propose_ready t
  end
  else
    (* a foreign commit while we believe we lead *)
    demote t ~reason:"foreign commit observed"

let on_committed t instance value =
  if not t.rebuilding then
    match t.exec with
    | None -> ()
    | Some exec ->
      if t.role_ = Primary then begin
        match Queue.peek_opt t.inflight with
        | Some (mine, upto) when mine == value ->
          (* the very string we proposed: its upto is known, skip the decode *)
          ignore (Queue.pop t.inflight);
          primary_committed t exec instance upto
        | Some _ | None -> (
          Queue.clear t.inflight;
          match Proposal.upto value with
          | exception Codec.Decode_error msg ->
            Obs.Metric.incr t.c_decode_errors;
            Logs.warn (fun m ->
                m "rex[%d]: dropping undecodable committed value at instance \
                   %d: %s"
                  t.node_id instance msg)
          | upto -> primary_committed t exec instance upto)
      end
      else apply_committed t exec instance value

(* A pushed checkpoint blob reaches the nodes that did not run the
   barrier themselves — the primary above all, which otherwise never
   truncates its log or compacts its trace and grows without bound.  Once
   the blob is on our disk the history at or below its cut is recoverable
   from it, so the log prefix and the trace prefix can both go. *)
let absorb_pushed_ckpt t (blob : Checkpoint.t) =
  let have =
    match Checkpoint.Disk.latest t.disk with Some c -> c.seq | None -> 0
  in
  Checkpoint.Disk.save t.disk blob;
  if blob.seq > have && not t.rebuilding then
    match t.exec with
    | None -> ()
    | Some exec ->
      let upto_now =
        match t.agree with
        | Some a -> a.Agreement.committed_upto ()
        | None -> 0
      in
      (* Everyone truncates below the newest blob's base, so a rejoiner
         whose commit point sits below that horizon may be waiting for
         log entries that no longer exist on any replica.  A healthy but
         lagging secondary still makes progress between blobs; one that
         absorbed the previous blob without moving is provably wedged —
         rebuild it from the blob we just saved (the §3.3 fast-forward
         path) rather than truncating under a Learn that can never be
         answered. *)
      let stuck =
        t.role_ = Secondary
        && upto_now < blob.instance - 1
        && upto_now <= t.ckpt_push_upto
      in
      t.ckpt_push_upto <- upto_now;
      if stuck then begin
        Logs.info (fun m ->
            m "rex[%d]: behind GC horizon (committed %d < blob base %d), \
               rebuilding from pushed checkpoint"
              t.node_id upto_now blob.instance);
        t.gen <- t.gen + 1;
        drop_client_state t;
        t.rebuilding <- true;
        ignore
          (Engine.spawn t.eng ~node:t.node_id ~name:"rex.ckpt-rejoin"
             (fun () -> ignore (build_exec t)))
      end
      else begin
        (match t.agree with
        | Some a -> a.Agreement.truncate_below blob.instance
        | None -> ());
        (* The primary must keep its base at or below the last proposed
           cut: the next delta extraction starts there. *)
        let upto =
          if t.role_ = Primary then Trace.Cut.min blob.cut t.proposed_cut
          else blob.cut
        in
        Runtime.compact_trace exec.rt ~upto
      end

(* --- Construction --- *)

let create ?make_agreement net rpc cfg ~node ~paxos_store ~disk factory =
  let eng = Net.engine net in
  let slots = cfg.Config.workers + timer_slot_budget in
  let obs = Engine.obs eng in
  let labels = [ ("node", string_of_int node) ] in
  let c name = Obs.counter obs ~subsystem:"rex" ~labels name in
  let t =
    {
      eng;
      net;
      rpc;
      cfg;
      node_id = node;
      factory;
      pstore = paxos_store;
      disk;
      slots;
      agree = None;
      make_agreement;
      exec = None;
      role_ = Secondary;
      gen = 0;
      rebuilding = false;
      queue = Queue.create ();
      queue_waiters = [];
      replies = Frontend.Replies.create ();
      pending_reads = [];
      front = None;
      session =
        Session.Table.create obs ~stack:"rex" ~node ();
      proposed_cut = Trace.Cut.zero ~slots;
      cursor = None;
      progress = false;
      proposing = false;
      inflight = Queue.create ();
      committed_cut_ = Trace.Cut.zero ~slots;
      committed_instance = 0;
      ckpt_flag = false;
      ckpt_paused = 0;
      ckpt_seq = 0;
      ckpt_pending_proposal = None;
      ckpt_resume_waiters = [];
      ckpt_kick = [];
      ckpt_barrier = None;
      ckpt_arrived = 0;
      ckpt_done_waiters = [];
      ckpt_push_upto = -1;
      ckpt_size_hint = 4096;
      flow =
        Frontend.Flow.create eng ~window:cfg.Config.flow_window
          ~staleness:cfg.Config.flow_staleness;
      obs;
      c_requests = c "requests_executed";
      c_replies = c "replies_sent";
      c_queries = c "queries_served";
      c_proposals = c "proposals_sent";
      c_proposal_bytes = c "proposal_bytes";
      c_request_bytes = c "request_payload_bytes";
      c_ckpts = c "checkpoints_written";
      c_ckpt_bytes = c "checkpoint_bytes";
      c_rollbacks = c "rollbacks";
      c_flow_stalls = c "flow_stalls";
      c_decode_errors = c "decode_errors";
      h_req_lat_primary =
        Obs.histogram obs ~subsystem:"rex"
          ~labels:(("role", "primary") :: labels)
          "request_latency";
      h_req_lat_secondary =
        Obs.histogram obs ~subsystem:"rex"
          ~labels:(("role", "secondary") :: labels)
          "request_latency";
      h_flow_stall =
        Obs.histogram obs ~subsystem:"rex" ~labels "flow_stall_time";
      diverged = None;
    }
  in
  (* Client-facing services, shared with the SMR and Eve stacks.  The
     admission probe is the commit-gated reply backlog — the primary's
     natural measure of accepted-but-not-yet-durable work. *)
  t.front <-
    Some
      (Frontend.register rpc ~node ~table:t.session
    ?admission:
      (Config.admission cfg ~queue_depth:(fun () ->
           Frontend.Replies.length t.replies))
    ~reads:
      {
        Frontend.r_peers = (fun () -> peers t);
        r_lease_valid =
          (fun () ->
            t.role_ = Primary && (not t.rebuilding) && t.diverged = None
            &&
            match t.agree with
            | Some a -> a.Agreement.lease_valid ()
            | None -> false);
        r_read_index =
          (fun () ->
            match t.agree with
            | Some a -> a.Agreement.read_index ()
            | None -> 0);
        r_applied_upto =
          (fun () ->
            match t.exec with
            | None -> -1
            | Some _ ->
              if t.rebuilding || t.diverged <> None then -1
              else if t.role_ = Primary then t.committed_instance
              else if
                (* only at fully-caught-up points: a secondary's
                   [committed_instance] advances when the delta is
                   *appended*, not when its events finish replaying *)
                Trace.Cut.leq t.committed_cut_ (executed_cut t)
              then t.committed_instance
              else -1);
        r_read_local =
          (fun request cb ->
            match t.exec with
            | None -> cb None
            | Some exec ->
              if t.rebuilding || t.diverged <> None then cb None
              else begin
                Obs.Metric.incr t.c_queries;
                let resp = exec.app.App.query ~request in
                if t.role_ = Primary then begin
                  (* Speculative state: every write this read observed is
                     in the recorded trace.  Release the answer only once
                     that prefix commits, so a demotion that rolls the
                     state back also drops the read (fencing). *)
                  if executed_leq t t.committed_cut_ then cb (Some resp)
                  else
                    t.pending_reads <-
                      (executed_cut t, resp, cb) :: t.pending_reads
                end
                else cb (Some resp)
              end);
        r_lease_unsafe = cfg.Config.lease_unsafe;
      }
    {
      Frontend.is_leader = (fun () -> t.role_ = Primary);
      leader_hint =
        (fun () ->
          match t.agree with
          | Some a -> a.Agreement.leader_hint ()
          | None -> None);
      enqueue =
        (fun request cb ->
          Queue.push (request, Engine.clock eng, cb) t.queue;
          wake_one t);
    });
  Rpc.serve rpc ~node ~port:fetch_ckpt_port (fun ~src:_ _ ->
      match Checkpoint.Disk.latest t.disk with
      | Some c -> Checkpoint.encode c
      | None -> "");
  Net.register net ~node ~port:push_ckpt_port (fun ~src:_ payload ->
      match Checkpoint.decode payload with
      | blob -> absorb_pushed_ckpt t blob
      | exception Codec.Decode_error _ -> ());
  Net.register net ~node ~port:flow_port (fun ~src payload ->
      match Codec.read_uvarint (Codec.source payload) with
      | count -> Frontend.Flow.note t.flow ~src ~count
      | exception Codec.Decode_error _ -> ());
  t

let submit t request cb =
  if t.role_ <> Primary then cb None
  else begin
    Queue.push (request, Engine.clock t.eng, cb) t.queue;
    wake_one t
  end

let query t request =
  let exec = the_exec t in
  Obs.Metric.incr t.c_queries;
  exec.app.App.query ~request

(* Fetch a fresher checkpoint from peers before first build (a rejoining
   replica whose peers have GC'd their logs needs it). *)
let fetch_better_checkpoint t =
  let mine =
    match Checkpoint.Disk.latest t.disk with Some c -> c.seq | None -> 0
  in
  List.iter
    (fun peer ->
      if peer <> t.node_id then
        match
          Rpc.call t.rpc ~src:t.node_id ~dst:peer ~port:fetch_ckpt_port
            ~timeout:0.05 ""
        with
        | Some blob when blob <> "" -> (
          match Checkpoint.decode blob with
          | c when c.seq > mine -> Checkpoint.Disk.save t.disk c
          | _ -> ()
          | exception Codec.Decode_error _ -> ())
        | Some _ | None -> ())
    (peers t)

let start t =
  let cbs =
    {
      Agreement.on_committed = (fun i v -> on_committed t i v);
      on_become_leader = (fun () -> promote t);
      on_new_leader =
        (fun r ->
          if t.role_ = Primary then
            demote t ~reason:(Printf.sprintf "replica %d took leadership" r));
    }
  in
  let agree =
    match t.make_agreement with
    | Some make -> make t cbs
    | None -> Agreement.of_paxos t.net t.cfg ~node:t.node_id t.pstore cbs
  in
  t.agree <- Some agree;
  ignore
    (Engine.spawn t.eng ~node:t.node_id ~name:"rex.start" (fun () ->
         fetch_better_checkpoint t;
         ignore (build_exec t);
         agree.Agreement.start ()))
