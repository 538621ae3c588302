(* The conflict-aware execution stage shared by both sched stacks,
   running on either Par backend (sim fibers or real domains):

   - [Cbase]: committed requests enter a conflict DAG ({!Dag}) in log
     order; a pool of worker fibers pulls ready nodes and trims them on
     completion (graph dispatch).
   - [Early]: requests are assigned to worker queues at ordering time
     from their app-key classes (class = key hash mod workers); a
     request spanning several classes becomes a rendezvous barrier — all
     involved workers meet at it, the last arrival executes, the rest
     stall (Alchieri et al., "Early Scheduling in Parallel SMR").

   A client's requests never run at once (the in-execute duplicate
   check relies on it): cbase chains them on the client's session key;
   early keeps a precedence, not a class — a worker holds a request
   until the same client's previous admitted one has completed.  Every
   such wait is on an earlier-admitted task and the queues are FIFO in
   admission order, so it cannot deadlock (DESIGN.md §12).

   Requests with no known app keys ([], enveloped or not) are
   serialized against everything (a DAG barrier / an all-workers
   rendezvous): safety for timer ticks and unparseable requests.

   One backend mutex guards all scheduler state; execution itself runs
   lock-free on the worker fiber.  Contextual ops (park inside cond
   waits, Engine.work in app code) are effects handled by whichever
   backend runs the fiber, so the same code is deterministic on the
   simulator and truly parallel on domains. *)

type mode = Cbase | Early

let mode_name = function Cbase -> "cbase" | Early -> "early"

type task = {
  t_keys : string list;  (* app keys *)
  t_client : int option;  (* early, keyed: its entry in [last] *)
  mutable t_prev : task option;
      (* early: the client's previous admitted task, until this one starts *)
  mutable t_done : bool;
  t_run : unit -> unit;
}

module Clients = Hashtbl.Make (Int)

type etask =
  | Single of task
  | Shared of shared

and shared = {
  s_task : task;
  s_owners : int;
  mutable s_arrived : int;
  mutable s_done : bool;
}

type t = {
  backend : Par.Backend.t;
  node : int;
  mode : mode;
  workers : int;
  claim : string -> Conflict.claim;
  execute : string -> string;
  m : Par.Backend.mutex;
  work_c : Par.Backend.cond array;
      (* workers wait here for work: cbase's pool shares [work_c.(0)], each
         early worker has its own *)
  quiet_c : Par.Backend.cond;  (* readers + drain: a task completed *)
  barrier_c : Par.Backend.cond;  (* early: rendezvous release *)
  dag : task Dag.t;  (* cbase *)
  queues : etask Queue.t array;  (* early: one per worker *)
  last : task Clients.t;  (* early: each client's latest in-flight task *)
  key_live : (string, int) Hashtbl.t;  (* in-flight claims per key *)
  mutable global_live : int;  (* in-flight no-key (global) tasks *)
  mutable in_flight : int;  (* admitted, not yet completed *)
  mutable busy_workers : int;
  mutable busy_time : float;
  mutable stopping : bool;
  (* observability: subsystem "sched", labelled node + stack *)
  c_executed : Obs.Metric.counter;
  c_barriers : Obs.Metric.counter;
  c_stalls : Obs.Metric.counter;
  c_waits : Obs.Metric.counter;
  c_wakeups : Obs.Metric.counter;
  g_graph : Obs.Metric.gauge;
  g_graph_max : Obs.Metric.gauge;
  g_ready : Obs.Metric.gauge;
  g_ready_max : Obs.Metric.gauge;
  g_busy : Obs.Metric.gauge;
  g_busy_time : Obs.Metric.gauge;
}

type stats = {
  executed : int;
  barriers : int;
  barrier_stalls : int;
  precedence_waits : int;
  wakeups : int;
  graph_max : int;
  ready_max : int;
  busy_time : float;
}

let stats t =
  {
    executed = Obs.Metric.value t.c_executed;
    barriers = Obs.Metric.value t.c_barriers;
    barrier_stalls = Obs.Metric.value t.c_stalls;
    precedence_waits = Obs.Metric.value t.c_waits;
    wakeups = Obs.Metric.value t.c_wakeups;
    graph_max = int_of_float (Obs.Metric.get t.g_graph_max);
    ready_max = int_of_float (Obs.Metric.get t.g_ready_max);
    busy_time = t.busy_time;
  }

let pending t = t.in_flight
let mode t = t.mode

let lock t = t.m.Par.Backend.m_lock ()
let unlock t = t.m.Par.Backend.m_unlock ()

let note_graph t =
  let s = float_of_int (Dag.size t.dag) in
  Obs.Metric.set t.g_graph s;
  Obs.Metric.set_max t.g_graph_max s;
  let r = float_of_int (Dag.ready_width t.dag) in
  Obs.Metric.set t.g_ready r;
  Obs.Metric.set_max t.g_ready_max r

(* Early: the worker class of a conflict key.  Deterministic across
   replicas (string hashing), so every replica builds the same queues
   from the same log. *)
let worker_of_key t k = Hashtbl.hash k mod t.workers

let owners_of_keys t keys =
  List.sort_uniq compare (List.map (worker_of_key t) keys)

(* --- completion bookkeeping (lock held) --- *)

let note_done t task =
  (match task.t_keys with
  | [] -> t.global_live <- t.global_live - 1
  | keys ->
    List.iter
      (fun k ->
        match Hashtbl.find_opt t.key_live k with
        | Some 1 -> Hashtbl.remove t.key_live k
        | Some c -> Hashtbl.replace t.key_live k (c - 1)
        | None -> ())
      keys);
  (match task.t_client with
  | Some c -> (
    match Clients.find t.last c with
    | last when last == task -> Clients.remove t.last c
    | _ | (exception Not_found) -> ())
  | None -> ());
  task.t_done <- true;
  t.in_flight <- t.in_flight - 1;
  Obs.Metric.incr t.c_executed;
  t.quiet_c.Par.Backend.c_broadcast ()

(* Early: hold a task until its client's previous one has completed
   (every completion broadcasts [quiet_c]). *)
let await_prev t task =
  match task.t_prev with
  | None -> ()
  | Some prev ->
    if not prev.t_done then begin
      Obs.Metric.incr t.c_waits;
      while not prev.t_done do
        t.quiet_c.Par.Backend.c_wait t.m
      done
    end;
    task.t_prev <- None

(* Run a task's body with the busy gauge held; no lock across it. *)
let run_body t task =
  await_prev t task;
  t.busy_workers <- t.busy_workers + 1;
  Obs.Metric.set t.g_busy (float_of_int t.busy_workers);
  unlock t;
  let t0 = Par.Backend.clock t.backend in
  (try task.t_run ()
   with e ->
     (* re-lock before re-raising so the invariant "worker holds the
        lock between tasks" survives; the fiber is dying anyway (sim
        node crash), so state past this point is moot *)
     lock t;
     t.busy_workers <- t.busy_workers - 1;
     raise e);
  let dt = Par.Backend.clock t.backend -. t0 in
  lock t;
  t.busy_time <- t.busy_time +. dt;
  Obs.Metric.set t.g_busy_time t.busy_time;
  t.busy_workers <- t.busy_workers - 1;
  Obs.Metric.set t.g_busy (float_of_int t.busy_workers)

(* A worker waits for work; every return counts as a wake-up. *)
let await_work t w =
  t.work_c.(w).Par.Backend.c_wait t.m;
  Obs.Metric.incr t.c_wakeups

(* --- cbase worker --- *)

(* One signal per node that becomes ready wakes at most one idle worker
   for it, never the whole pool.  No wake-up is lost: a worker checks
   the ready queue under the lock before it waits, so a node that
   becomes ready while every worker is busy is taken by the next one to
   finish. *)
let signal_ready t n =
  for _ = 1 to n do
    t.work_c.(0).Par.Backend.c_signal ()
  done

let cbase_worker t () =
  lock t;
  let rec loop () =
    match Dag.take_ready t.dag with
    | None ->
      if t.stopping then unlock t
      else begin
        await_work t 0;
        loop ()
      end
    | Some node ->
      note_graph t;
      let task = Dag.payload node in
      run_body t task;
      let before = Dag.ready_width t.dag in
      Dag.complete t.dag node;
      (* this worker takes one promoted successor itself *)
      signal_ready t (Dag.ready_width t.dag - before - 1);
      note_graph t;
      note_done t task;
      loop ()
  in
  loop ()

(* --- early worker --- *)

let early_worker t w () =
  lock t;
  let q = t.queues.(w) in
  let rec loop () =
    match Queue.take_opt q with
    | None ->
      if t.stopping then unlock t
      else begin
        await_work t w;
        loop ()
      end
    | Some (Single task) ->
      run_body t task;
      note_done t task;
      loop ()
    | Some (Shared s) ->
      s.s_arrived <- s.s_arrived + 1;
      if s.s_arrived = s.s_owners then begin
        (* last to arrive executes on behalf of everyone *)
        run_body t s.s_task;
        s.s_done <- true;
        t.barrier_c.Par.Backend.c_broadcast ();
        note_done t s.s_task
      end
      else begin
        Obs.Metric.incr t.c_stalls;
        while not s.s_done do
          t.barrier_c.Par.Backend.c_wait t.m
        done
      end;
      loop ()
  in
  loop ()

let create backend ~node ~mode ~workers ~conflict ~execute =
  if workers <= 0 then invalid_arg "Exec.create: workers";
  let obs = Par.Backend.obs backend in
  let claim = Conflict.claim ~obs ~subsystem:"sched" ~node conflict in
  let labels =
    [ ("node", string_of_int node); ("stack", mode_name mode) ]
  in
  let c name = Obs.counter obs ~subsystem:"sched" ~labels name in
  let g name = Obs.gauge obs ~subsystem:"sched" ~labels name in
  let t =
    {
      backend;
      node;
      mode;
      workers;
      claim;
      execute;
      m = Par.Backend.mutex backend;
      work_c =
        Array.init
          (match mode with Cbase -> 1 | Early -> workers)
          (fun _ -> Par.Backend.cond backend);
      quiet_c = Par.Backend.cond backend;
      barrier_c = Par.Backend.cond backend;
      dag = Dag.create ();
      queues = Array.init workers (fun _ -> Queue.create ());
      last = Clients.create 64;
      key_live = Hashtbl.create 64;
      global_live = 0;
      in_flight = 0;
      busy_workers = 0;
      busy_time = 0.;
      stopping = false;
      c_executed = c "requests_executed";
      c_barriers = c "barriers";
      c_stalls = c "barrier_stalls";
      c_waits = c "precedence_waits";
      c_wakeups = c "worker_wakeups";
      g_graph = g "graph_size";
      g_graph_max = g "graph_size_max";
      g_ready = g "ready_width";
      g_ready_max = g "ready_width_max";
      g_busy = g "workers_busy";
      g_busy_time = g "busy_time_s";
    }
  in
  for w = 0 to workers - 1 do
    let name = Printf.sprintf "sched.%s.worker%d" (mode_name mode) w in
    match mode with
    | Cbase -> Par.Backend.spawn backend ~node ~name (cbase_worker t)
    | Early -> Par.Backend.spawn backend ~node ~name (early_worker t w)
  done;
  t

(* --- admission (log order; caller may be any fiber) --- *)

let add t ~client ~keys ~run =
  lock t;
  t.in_flight <- t.in_flight + 1;
  (match keys with
  | [] ->
    t.global_live <- t.global_live + 1;
    Obs.Metric.incr t.c_barriers
  | _ ->
    List.iter
      (fun k ->
        Hashtbl.replace t.key_live k
          (1 + Option.value (Hashtbl.find_opt t.key_live k) ~default:0))
      keys);
  let task client =
    { t_keys = keys; t_client = client; t_prev = None; t_done = false;
      t_run = run }
  in
  (match t.mode with
  | Cbase ->
    let before = Dag.ready_width t.dag in
    (match (keys, client) with
    | [], _ -> ignore (Dag.insert_barrier t.dag (task None))
    | _, None -> ignore (Dag.insert t.dag ~keys (task None))
    | _, Some c ->
      (* the client's order is one more edge *)
      ignore
        (Dag.insert t.dag ~keys:(Conflict.session_key c :: keys) (task None)));
    signal_ready t (Dag.ready_width t.dag - before);
    note_graph t
  | Early -> (
    (* a barrier orders behind everything in every queue already, so
       only keyed requests join their client's precedence chain *)
    let task =
      match (keys, client) with
      | _ :: _, Some c ->
        let task = task client in
        task.t_prev <- Clients.find_opt t.last c;
        Clients.replace t.last c task;
        task
      | _ -> task None
    in
    (* wake only the owners; a barrier owns every queue *)
    let wake w = t.work_c.(w).Par.Backend.c_signal () in
    match (if keys = [] then List.init t.workers Fun.id
           else owners_of_keys t keys)
    with
    | [ w ] ->
      Queue.push (Single task) t.queues.(w);
      wake w
    | owners ->
      let s =
        { s_task = task; s_owners = List.length owners;
          s_arrived = 0; s_done = false }
      in
      List.iter
        (fun w ->
          Queue.push (Shared s) t.queues.(w);
          wake w)
        owners));
  unlock t

let admit t req cb =
  let { Conflict.client; keys } = t.claim req in
  add t ~client ~keys ~run:(fun () ->
      let resp =
        try t.execute req with
        | Sim.Engine.Killed as e -> raise e
        | exn ->
          Logs.warn (fun m ->
              m "sched[%d]: handler raised %s" t.node (Printexc.to_string exn));
          "ERR:handler-exception"
      in
      cb resp)

let admit_barrier t f = add t ~client:None ~keys:[] ~run:f

(* --- read routing / quiescence --- *)

let busy_locked t keys =
  t.global_live > 0
  || match keys with
     | [] -> t.in_flight > 0
     | keys -> List.exists (fun k -> Hashtbl.mem t.key_live k) keys

let busy t keys =
  lock t;
  let b = busy_locked t keys in
  unlock t;
  b

let park_until_quiet t keys =
  lock t;
  while busy_locked t keys do
    t.quiet_c.Par.Backend.c_wait t.m
  done;
  unlock t

let drain t =
  lock t;
  while t.in_flight > 0 do
    t.quiet_c.Par.Backend.c_wait t.m
  done;
  unlock t

let shutdown t =
  lock t;
  t.stopping <- true;
  Array.iter (fun c -> c.Par.Backend.c_broadcast ()) t.work_c;
  unlock t
