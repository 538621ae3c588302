open Sim

type callback = string option -> unit

type item = Request of string * callback option | Tick of (unit -> unit)

type executor = {
  deliver : int -> item list -> unit;
  gate_read : string -> unit;
  applied : unit -> int;
  form_batch : (string * callback) Queue.t -> (string * callback) list;
  await_execution : bool;
}

type env = {
  eng : Engine.t;
  net : Net.t;
  backend : Par.Backend.t;
  node : int;
  cfg : Config.t;
  app : App.t;
  inner : App.t;
  session : Session.Table.t;
  n_timers : int;
  leader_hint : unit -> int option;
}

let timer_prefix = "\x00TIMER:"
let is_tick request = String.starts_with ~prefix:timer_prefix request

(* An instance we proposed: its encoded batch and the batch's reply
   callbacks, in batch order. *)
type proposal = { p_instance : int; p_value : string; p_cbs : callback list }

type 'x t = {
  env : env;
  stack : string;
  pstore : Paxos.Store.t;
  timers : Api.timer_spec array;
  state : 'x;
  exec : executor;
  agree : Agreement.t option ref;
  mutable front : Frontend.t option;
  mutable leader : bool;
  mutable leader_epoch : int;
  queue : (string * callback) Queue.t;
  mutable inflight : proposal list;  (* ours, uncommitted, oldest first *)
  mutable proposing : bool;  (* guards [propose_ready] against re-entry *)
  exec_queue : (int * item list) Queue.t;
  mutable delivering : bool;  (* the executor is running a batch *)
  mutable exec_waiters : Engine.waker list;
}

let state t = t.state
let node t = t.env.node
let is_primary t = t.leader
let app t = t.env.app
let session_table t = t.env.session
let app_digest t = t.env.app.App.digest ()
let query t request = t.env.app.App.query ~request

let frontend t =
  match t.front with
  | Some f -> f
  | None -> invalid_arg "Log_server.frontend: not registered"

let peers t =
  match !(t.agree) with
  | Some a -> a.Agreement.peers ()
  | None -> t.env.cfg.Config.replicas

(* Propose one batch from the queue; [false] if the executor formed an
   empty one.  The callbacks are registered before [propose] runs: in a
   one-replica group the instance commits inside it. *)
let propose_batch t agree =
  match t.exec.form_batch t.queue with
  | [] -> false
  | items ->
    let value = Frontend.encode_batch (List.map fst items) in
    let p =
      { p_instance = agree.Agreement.next_instance (); p_value = value;
        p_cbs = List.map snd items }
    in
    t.inflight <- t.inflight @ [ p ];
    if not (agree.Agreement.propose value) then begin
      t.inflight <- List.filter (fun q -> q != p) t.inflight;
      List.iter (fun cb -> cb None) p.p_cbs
    end;
    true

(* A stack whose batches wait for execution proposes only while none of
   its instances is open and its executor has run every committed batch. *)
let batch_may_start t =
  (not t.exec.await_execution)
  || (t.inflight = [] && (not t.delivering) && Queue.is_empty t.exec_queue)

(* Propose while requests are queued and the agree stage takes another
   value: up to [pipeline_depth] instances, or one batch at a time for a
   stack that awaits execution.  It runs on an arrival, a timer's tick,
   the commit of one of our instances, the end of each executed batch
   and the end of a membership change, never on a clock of its own. *)
let propose_ready t =
  match !(t.agree) with
  | Some agree when not t.proposing ->
    t.proposing <- true;
    while
      t.leader
      && (not (Queue.is_empty t.queue))
      && agree.Agreement.can_propose ()
      && batch_may_start t
      && propose_batch t agree
    do
      ()
    done;
    t.proposing <- false
  | _ -> ()

(* Clients may not forge ticks: a reserved-prefix request is dropped
   before it reaches the queue the batcher proposes from. *)
let submit t request cb =
  if (not t.leader) || is_tick request then cb None
  else begin
    Queue.push (request, cb) t.queue;
    propose_ready t
  end

(* The agree stage holds the proposer until the config entry is
   delivered (see [Agreement.reconfig]); a deposed leader drops the
   change. *)
let reconfig t members =
  match !(t.agree) with
  | Some a when t.leader ->
    let epoch = t.leader_epoch in
    a.Agreement.reconfig members
      ~live:(fun () -> t.leader && t.leader_epoch = epoch)
      ~release:(fun () -> propose_ready t)
  | Some _ | None -> false

let take n q =
  let rec drain k acc =
    if k = 0 then List.rev acc
    else
      match Queue.take_opt q with
      | None -> List.rev acc
      | Some r -> drain (k - 1) (r :: acc)
  in
  drain n []

let wake_executor t =
  let ws = t.exec_waiters in
  t.exec_waiters <- [];
  List.iter Engine.wake ws

(* Committed batches reach the executor strictly in log order: Paxos
   delivers commits in instance order and one fiber runs them.  Paxos's
   [on_committed] only queues and wakes it: [deliver] may park, and
   Paxos's callers read their state again once the callback returns. *)
let executor_loop t () =
  let rec loop () =
    match Queue.take_opt t.exec_queue with
    | Some (instance, items) ->
      t.delivering <- true;
      t.exec.deliver instance items;
      t.delivering <- false;
      propose_ready t;
      loop ()
    | None ->
      Engine.park (fun w -> t.exec_waiters <- w :: t.exec_waiters);
      loop ()
  in
  loop ()

let item_of t request cb =
  if is_tick request then
    let idx =
      String.sub request (String.length timer_prefix)
        (String.length request - String.length timer_prefix)
    in
    match int_of_string_opt idx with
    | Some i when i >= 0 && i < Array.length t.timers ->
      Tick t.timers.(i).Api.t_callback
    | _ -> Tick ignore
  else Request (request, cb)

(* The leader answers the requests of the batch it proposed; any other
   commit of the instance (a rival leader's, a replay) has no callbacks
   here.  A proposal of ours that lost its instance to another value
   keeps its callbacks until [on_new_leader] answers them. *)
let take_own t instance value =
  match
    List.partition
      (fun p -> p.p_instance = instance && p.p_value = value)
      t.inflight
  with
  | [ p ], rest ->
    t.inflight <- rest;
    Some p.p_cbs
  | _ -> None

let on_committed t instance value =
  match Frontend.decode_batch value with
  | exception Codec.Decode_error _ -> ()
  | reqs ->
    let own = if t.inflight = [] then None else take_own t instance value in
    let cbs =
      match own with
      (* Defensive: lengths can differ if the commit is foreign. *)
      | Some cbs when List.compare_lengths cbs reqs = 0 ->
        List.map Option.some cbs
      | Some _ | None -> List.map (fun _ -> None) reqs
    in
    Queue.push (instance, List.map2 (item_of t) reqs cbs) t.exec_queue;
    if own <> None then propose_ready t;
    wake_executor t

let replay t = Paxos.Replica.replay_committed t.pstore (on_committed t)

let spawn_leader_fibers t =
  t.leader_epoch <- t.leader_epoch + 1;
  let epoch = t.leader_epoch in
  let live () = t.leader && t.leader_epoch = epoch in
  (* Timers become proposed pseudo-requests, so every replica runs the
     callback at the same log position. *)
  Array.iteri
    (fun idx spec ->
      ignore
        (Engine.spawn t.env.eng ~node:t.env.node
           ~name:(t.stack ^ ".timer." ^ spec.Api.t_name)
           (fun () ->
             while live () do
               Engine.sleep spec.Api.t_interval;
               if live () then begin
                 Queue.push
                   (Printf.sprintf "%s%d" timer_prefix idx, fun _ -> ())
                   t.queue;
                 propose_ready t
               end
             done)))
    t.timers

let create net rpc cfg ~node ~paxos_store ~stack build factory =
  let eng = Net.engine net in
  (* The app's wrappers run native: no fiber is ever bound to a slot. *)
  let backend = Par.Backend.of_sim eng in
  let rt = Rexsync.Runtime.create backend ~node ~slots:1 in
  let api = Api.make rt in
  let session = Session.Table.create (Engine.obs eng) ~stack ~node () in
  (* Execution order is identical on every replica (each executor keeps
     conflicting requests, and one client's requests, in log order), so
     the in-execute duplicate check is deterministic — it catches
     retries that slipped past intake on a freshly elected leader whose
     executor is still catching up on earlier instances. *)
  let inner = factory api in
  let app = Session.wrap ~table:session ~dedup_in_execute:true inner in
  let timers = Array.of_list (Api.seal api) in
  let agree = ref None in
  let leader_hint () =
    Option.bind !agree (fun a -> a.Agreement.leader_hint ())
  in
  let env =
    {
      eng;
      net;
      backend;
      node;
      cfg;
      app;
      inner;
      session;
      n_timers = Array.length timers;
      leader_hint;
    }
  in
  let state, exec = build env in
  let t =
    {
      env;
      stack;
      pstore = paxos_store;
      timers;
      state;
      exec;
      agree;
      front = None;
      leader = false;
      leader_epoch = 0;
      queue = Queue.create ();
      inflight = [];
      proposing = false;
      exec_queue = Queue.create ();
      delivering = false;
      exec_waiters = [];
    }
  in
  t.front <-
    Some
      (Frontend.register rpc ~node ~table:session
         ?admission:
           (Config.admission cfg ~queue_depth:(fun () -> Queue.length t.queue))
         ~reads:
           {
             Frontend.r_peers = (fun () -> peers t);
             r_lease_valid =
               (fun () ->
                 t.leader
                 && match !agree with
                    | Some a -> a.Agreement.lease_valid ()
                    | None -> false);
             r_read_index =
               (fun () ->
                 match !agree with
                 | Some a -> a.Agreement.read_index ()
                 | None -> 0);
             (* The leader replies to a write only after executing it
                locally, so once the executor's gate opens leader state
                covers every acked write: both read paths answer from
                [app] directly. *)
             r_applied_upto = exec.applied;
             r_read_local =
               (fun request cb ->
                 exec.gate_read request;
                 cb (Some (app.App.query ~request)));
             r_lease_unsafe = cfg.Config.lease_unsafe;
           }
         {
           Frontend.is_leader = (fun () -> t.leader);
           leader_hint;
           enqueue = submit t;
         });
  t

let start t =
  let agree =
    Agreement.of_paxos t.env.net t.env.cfg ~node:t.env.node t.pstore
      {
        Agreement.on_committed = (fun i v -> on_committed t i v);
        on_become_leader =
          (fun () ->
            t.leader <- true;
            spawn_leader_fibers t);
        on_new_leader =
          (fun _ ->
            if t.leader then begin
              t.leader <- false;
              (* Our uncommitted proposal may still commit, but a deposed
                 leader no longer answers for it: dropping its callbacks
                 releases the frontend's in-flight entries, so client
                 retries can be served by the new leader. *)
              let open_ = t.inflight in
              t.inflight <- [];
              List.iter (fun p -> List.iter (fun cb -> cb None) p.p_cbs) open_;
              Queue.iter (fun (_, cb) -> cb None) t.queue;
              Queue.clear t.queue
            end);
      }
  in
  t.agree := Some agree;
  agree.Agreement.start ();
  ignore
    (Engine.spawn t.env.eng ~node:t.env.node ~name:(t.stack ^ ".executor")
       (executor_loop t))
