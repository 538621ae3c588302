(* A replicated conflict-aware parallel SMR stack: the log-order core
   (leader batches, Paxos orders, all replicas execute) with the
   committed stream feeding {!Exec} — a conflict DAG ([Cbase]) or
   class-to-worker queues ([Early]) — instead of a single executor
   fiber.  No recording, no trace shipping: determinism comes from the
   conflict oracle alone (commuting requests may interleave freely;
   conflicting ones execute in log order on every replica). *)

module R = Rex_core
module L = R.Log_server

type t = Exec.t L.t

(* Bigger than Smr's 64: with one instance in flight the agreement
   round-trip is paid per batch, and unlike record/replay nothing here
   grows with batch size, so large batches amortize the RTT and keep
   the worker pool fed. *)
let batch_max = 256

let executor ~mode ~conflict (env : L.env) =
  let exec =
    Exec.create env.backend ~node:env.node ~mode
      ~workers:(max 1 env.cfg.R.Config.workers)
      ~conflict
      ~execute:(fun request -> env.app.R.App.execute ~request)
  in
  let applied_q : (int * int ref) Queue.t = Queue.create () in
  let applied = ref 0 in
  (* Completions arrive out of order (that's the point — non-conflicting
     requests of consecutive batches overlap), but batches are admitted
     in log order: each completion decrements its own instance's
     counter, and the applied index advances by draining fully-executed
     instances from the head of [applied_q]. *)
  let rec advance () =
    match Queue.peek_opt applied_q with
    | Some (instance, remaining) when !remaining = 0 ->
      ignore (Queue.pop applied_q);
      if instance > !applied then applied := instance;
      advance ()
    | Some _ | None -> ()
  in
  let admit_one remaining = function
    | L.Tick f ->
      (* A tick is an Exec barrier: every replica runs the callback at
         the same log position, so e.g. kyoto's autosync flushes
         identical dirty sets everywhere. *)
      Exec.admit_barrier exec (fun () ->
          f ();
          decr remaining;
          advance ())
    | L.Request (request, cb) ->
      Exec.admit exec request (fun resp ->
          Option.iter (fun cb -> cb (Some resp)) cb;
          decr remaining;
          advance ())
  in
  (* Admission may park on the pool mutex; the core's single executor
     fiber keeps instance i fully admitted before i+1 regardless. *)
  let deliver instance items =
    match List.length items with
    | 0 -> if instance > !applied then applied := instance
    | n ->
      let remaining = ref n in
      Queue.push (instance, remaining) applied_q;
      List.iter (admit_one remaining) items
  in
  ( exec,
    {
      L.deliver;
      (* A read on keys K is served locally only after every in-flight
         write claiming a key in K has executed — both the lease fast
         path and the quorum path route through here. *)
      gate_read =
        (fun request -> Exec.park_until_quiet exec (conflict request));
      applied = (fun () -> !applied);
      form_batch = L.take batch_max;
      await_execution = false;
    } )

let create net rpc cfg ~node ~paxos_store ~mode ~conflict factory =
  L.create net rpc cfg ~node ~paxos_store
    ~stack:("sched-" ^ Exec.mode_name mode)
    (executor ~mode ~conflict) factory

let start = L.start
let replay = L.replay
let node = L.node
let is_primary = L.is_primary
let session_table = L.session_table
let frontend = L.frontend
let exec = L.state
let submit = L.submit
let query = L.query
let app_digest = L.app_digest
let executed_requests t = (Exec.stats (exec t)).Exec.executed

(* Checkpoints ride the existing codec path: drain the execution stage
   to a quiescent cut (every admitted request executed — a consistent
   log prefix), then snapshot app + session table exactly like the other
   stacks.  Callable only from a fiber (draining parks). *)
let checkpoint t =
  Exec.drain (exec t);
  let sink = Codec.sink ~initial_capacity:4096 () in
  (L.app t).R.App.write_checkpoint sink;
  Codec.contents sink

let restore t snap =
  Exec.drain (exec t);
  (L.app t).R.App.read_checkpoint (Codec.source snap)
