open Effect
open Effect.Deep

type tid = int

exception Killed

(* The fiber-context protocol is shared with the real-parallel backend
   (lib/par): any scheduler that handles these effects and mints wakers
   can run the same fiber code.  The simulator below is one handler; the
   domains task pool is the other. *)
module Protocol = struct
  type fiber_info = { fi_tid : tid; fi_node : int; fi_name : string }

  type waker = { w_fired : bool Atomic.t; w_fire : unit -> unit }

  type _ Effect.t +=
    | E_now : float Effect.t
    | E_self : fiber_info Effect.t
    | E_work : float -> unit Effect.t
    | E_sleep : float -> unit Effect.t
    | E_park : (waker -> unit) -> unit Effect.t
    | E_yield : unit Effect.t

  let make_waker fire = { w_fired = Atomic.make false; w_fire = fire }

  (* Idempotent from any domain: exactly one caller wins the CAS. *)
  let wake w =
    if Atomic.compare_and_set w.w_fired false true then w.w_fire ()
end

type waker = Protocol.waker

(* One record per fiber, allocated whole: its [Protocol.fiber_info] is
   built only when an [E_self] asks for it. *)
type fiber = {
  tid : tid;
  node : int;
  name : string;
  inc : int;
  mutable parked : (unit, unit) continuation option;
  mutable park_gen : int;
  mutable listed : bool;  (* in [t.fibers] *)
}

(* [t.running] between fiber steps. *)
let no_fiber =
  { tid = -1; node = -1; name = ""; inc = -1; parked = None; park_gen = 0;
    listed = false }

(* The fibers that have suspended and not finished, by tid: a tid is its
   own hash, so the table runs no polymorphic hash or compare.  A fiber
   enters it at its first [E_work], [E_sleep], [E_park] or [E_yield], so
   a delivery handler that runs to completion never touches it. *)
module Tids = Hashtbl.Make (struct
  type t = tid

  let equal = Int.equal
  let hash i = i
end)

(* Per-node state lives in arrays indexed by node id; [add_node] grows
   them in place (the control plane adds replicas to a live fabric), so
   the fields are mutable and must only be read through [t]. *)
type t = {
  mutable time : float;
  events : (unit -> unit) Pqueue.t;
  root_rng : Rng.t;
  jitter_rng : Rng.t;
  mutable nodes : int;
  cores : int;
  mutable alive : bool array;
  mutable node_inc : int array;
  mutable clock_rate : float array;
      (* per-node local-clock rate relative to virtual time (1.0 = true) *)
  mutable clock_offset : float array;
  mutable free_cores : int array;
  mutable cpu_wait :
    (fiber * float * float * (unit, unit) continuation) Queue.t array;
      (* (fiber, work duration, enqueue time, continuation) *)
  mutable busy : float array;
  fibers : fiber Tids.t;
  mutable next_tid : int;
  next_uid : int Atomic.t;
  mutable running : fiber;  (* [no_fiber] outside a fiber step *)
  mutable handler : (unit, unit) handler option;  (* built on first spawn *)
  (* observability *)
  obs : Obs.t;
  mutable ready : int;  (* queue depth after the last pop *)
  mutable ready_max : int;
  mutable dispatched : int;  (* events not yet added to [c_dispatched] *)
  g_ready : Obs.Metric.gauge;
  g_ready_max : Obs.Metric.gauge;
  c_dispatched : Obs.Metric.counter;
  mutable c_spawned : Obs.Metric.counter array;
  mutable h_cpu_wait : Obs.Histogram.t array;
}

let create ?(seed = 42) ?(cores_per_node = 16) ~num_nodes () =
  if num_nodes <= 0 then invalid_arg "Engine.create: num_nodes";
  if cores_per_node <= 0 then invalid_arg "Engine.create: cores_per_node";
  let root = Rng.create seed in
  (* The engine's generators advance on every scheduling decision; pin
     them so a stray cross-domain draw fails loudly instead of tearing
     the seed stream (Rng.split is the only supported handoff). *)
  Rng.pin root;
  let jitter = Rng.split root in
  Rng.pin jitter;
  let obs = Obs.create () in
  let node_label n = [ ("node", string_of_int n) ] in
  let t =
    {
      time = 0.;
      events = Pqueue.create ();
      jitter_rng = jitter;
      root_rng = root;
      nodes = num_nodes;
      cores = cores_per_node;
      alive = Array.make num_nodes true;
      node_inc = Array.make num_nodes 0;
      clock_rate = Array.make num_nodes 1.;
      clock_offset = Array.make num_nodes 0.;
      free_cores = Array.make num_nodes cores_per_node;
      cpu_wait = Array.init num_nodes (fun _ -> Queue.create ());
      busy = Array.make num_nodes 0.;
      fibers = Tids.create 64;
      next_tid = 0;
      next_uid = Atomic.make 0;
      running = no_fiber;
      handler = None;
      obs;
      ready = 0;
      ready_max = 0;
      dispatched = 0;
      g_ready = Obs.gauge obs ~subsystem:"sim" "ready_events";
      g_ready_max = Obs.gauge obs ~subsystem:"sim" "ready_events_max";
      c_dispatched = Obs.counter obs ~subsystem:"sim" "events_dispatched";
      c_spawned =
        Array.init num_nodes (fun n ->
            Obs.counter obs ~subsystem:"sim" ~labels:(node_label n)
              "fibers_spawned");
      h_cpu_wait =
        Array.init num_nodes (fun n ->
            Obs.histogram obs ~subsystem:"sim" ~labels:(node_label n)
              "cpu_queue_wait");
    }
  in
  Obs.set_clock obs (fun () -> t.time);
  t

let num_nodes t = t.nodes
let cores_per_node t = t.cores

(* Grow the fabric by one node (alive, true clock, idle cores).  Fibers,
   nets and RPC served on existing nodes are untouched: every per-node
   array is extended in place and the new id is returned.  This is the
   substrate for live topology changes — a joining Paxos replica or a
   freshly split shard group gets real simulated hardware. *)
let add_node t =
  let n = t.nodes in
  let grow a v = Array.append a [| v |] in
  t.alive <- grow t.alive true;
  t.node_inc <- grow t.node_inc 0;
  t.clock_rate <- grow t.clock_rate 1.;
  t.clock_offset <- grow t.clock_offset 0.;
  t.free_cores <- grow t.free_cores t.cores;
  t.cpu_wait <- grow t.cpu_wait (Queue.create ());
  t.busy <- grow t.busy 0.;
  let labels = [ ("node", string_of_int n) ] in
  t.c_spawned <-
    grow t.c_spawned
      (Obs.counter t.obs ~subsystem:"sim" ~labels "fibers_spawned");
  t.h_cpu_wait <-
    grow t.h_cpu_wait
      (Obs.histogram t.obs ~subsystem:"sim" ~labels "cpu_queue_wait");
  t.nodes <- n + 1;
  n

(* Atomic so engine-scoped uid allocation stays safe if a handle leaks
   into backend-shared code; single-domain allocation order (and thus
   per-seed reproducibility) is unchanged. *)
let fresh_uid t = Atomic.fetch_and_add t.next_uid 1
let obs t = t.obs
let rng t = t.root_rng
let clock t = t.time

(* Per-node skewed clocks.  Virtual time is the one true timeline; each
   node reads [offset + rate * time].  Only lease logic consults these —
   event scheduling always runs on true time, so skew perturbs what a
   node *believes*, never what the simulator *does*. *)
let local_clock t n = t.clock_offset.(n) +. (t.clock_rate.(n) *. t.time)

let clock_rate t n = t.clock_rate.(n)

(* Changing the rate keeps the local clock continuous (no step), so a
   cure never makes a node's clock jump backwards. *)
let set_clock_rate t ~node rate =
  if rate <= 0. then invalid_arg "Engine.set_clock_rate: rate";
  let local_now = local_clock t node in
  t.clock_rate.(node) <- rate;
  t.clock_offset.(node) <- local_now -. (rate *. t.time)
let node_alive t n = t.alive.(n)
let busy_time t n = t.busy.(n)
let suspended_fibers t = Tids.length t.fibers

let jittered t at = at +. Rng.float t.jitter_rng 1e-9

let schedule t ~at cb =
  Pqueue.add t.events ~priority:(if at >= t.time then at else t.time) cb

type event = Pqueue.handle

let schedule_event t ~at cb =
  Pqueue.add_handle t.events ~priority:(if at >= t.time then at else t.time) cb

let cancel t ev = Pqueue.remove t.events ev

let valid t fiber = t.alive.(fiber.node) && fiber.inc = t.node_inc.(fiber.node)

let list_fiber t fiber =
  if not fiber.listed then begin
    fiber.listed <- true;
    Tids.replace t.fibers fiber.tid fiber
  end

let fiber_done t fiber = if fiber.listed then Tids.remove t.fibers fiber.tid

(* The engine whose fiber runs on this domain, if any: [now] reads its
   clock directly instead of performing [E_now].  [run] sets it for the
   whole dispatch loop, so a fiber step only writes it when the step
   happens outside its own engine's loop (test setup, or one engine's
   fiber driving another engine). *)
let current : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* Enter a step of [fiber]: make it [t.running] and [t] the domain's
   current engine; return what [leave] restores.  Every step goes
   through this pair rather than [Fun.protect], whose closures would be
   allocated once per event. *)
let[@inline] enter t fiber =
  t.running <- fiber;
  match Domain.DLS.get current with
  | Some c as cur when c == t -> cur
  | cur ->
    Domain.DLS.set current (Some t);
    cur

let[@inline] leave t prev cur =
  t.running <- prev;
  match cur with Some c when c == t -> () | _ -> Domain.DLS.set current cur

(* Run a suspended fiber's next step from the event loop: continue it, or
   discontinue it with [Killed] when [kill] is set or its node died while
   it was suspended. *)
let step t fiber k ~kill =
  let prev = t.running in
  let cur = enter t fiber in
  match if (not kill) && valid t fiber then continue k () else discontinue k Killed with
  | () -> leave t prev cur
  | exception e ->
    leave t prev cur;
    raise e

let resume t fiber k = step t fiber k ~kill:false
let kill t fiber k = step t fiber k ~kill:true

(* CPU core accounting: a fiber holds a core exactly for the duration of an
   [E_work] effect; waiters queue FIFO per node. *)
let rec start_work t fiber d k =
  let n = fiber.node in
  let started = t.time in
  t.free_cores.(n) <- t.free_cores.(n) - 1;
  schedule t ~at:(jittered t (t.time +. d)) (fun () ->
      if fiber.inc = t.node_inc.(n) && t.alive.(n) then begin
        t.busy.(n) <- t.busy.(n) +. d;
        let sp = Obs.spans t.obs in
        if Obs.Span.enabled sp then
          Obs.Span.complete sp ~cat:"work" ~pid:n ~tid:fiber.tid
            ~name:fiber.name ~ts:started ~dur:d ();
        release_core t n;
        resume t fiber k
      end
      else
        (* The node crashed (resetting core counts) after this work began:
           do not release a core that was already reclaimed. *)
        kill t fiber k)

and release_core t n =
  t.free_cores.(n) <- t.free_cores.(n) + 1;
  match Queue.take_opt t.cpu_wait.(n) with
  | None -> ()
  | Some (fiber, d, enq, k) ->
    if valid t fiber then begin
      let waited = t.time -. enq in
      Obs.Histogram.observe t.h_cpu_wait.(n) waited;
      let sp = Obs.spans t.obs in
      if Obs.Span.enabled sp then
        Obs.Span.complete sp ~cat:"cpu_wait" ~pid:n ~tid:fiber.tid
          ~name:"cpu_wait" ~ts:enq ~dur:waited ();
      start_work t fiber d k
    end
    else kill t fiber k

let do_park t fiber register k =
  list_fiber t fiber;
  fiber.park_gen <- fiber.park_gen + 1;
  fiber.parked <- Some k;
  let gen = fiber.park_gen in
  (* The generation check guards against a stale waker firing after the
     fiber has parked again on a newer waker. *)
  let w =
    Protocol.make_waker (fun () ->
        if gen = fiber.park_gen then
          match fiber.parked with
          | None -> ()
          | Some k ->
            fiber.parked <- None;
            schedule t ~at:(jittered t t.time) (fun () -> resume t fiber k))
  in
  register w

let wake = Protocol.wake

(* One handler per engine, not per fiber: effects, returns and escaping
   exceptions are all handled while the fiber is the one in [t.running]
   (set around every [match_with], [continue] and [discontinue]). *)
let handler t =
  let effc : type a. a Effect.t -> ((a, unit) continuation -> unit) option =
   fun eff ->
    let fiber = t.running in
    match eff with
    | Protocol.E_now ->
      Some (fun (k : (float, unit) continuation) -> continue k t.time)
    | Protocol.E_self ->
      Some
        (fun (k : (Protocol.fiber_info, unit) continuation) ->
          continue k
            { Protocol.fi_tid = fiber.tid; fi_node = fiber.node;
              fi_name = fiber.name })
    | Protocol.E_work d ->
      Some
        (fun (k : (unit, unit) continuation) ->
          if not (valid t fiber) then discontinue k Killed
          else begin
            list_fiber t fiber;
            if t.free_cores.(fiber.node) > 0 then start_work t fiber d k
            else Queue.push (fiber, d, t.time, k) t.cpu_wait.(fiber.node)
          end)
    | Protocol.E_sleep d ->
      Some
        (fun (k : (unit, unit) continuation) ->
          if not (valid t fiber) then discontinue k Killed
          else begin
            list_fiber t fiber;
            schedule t
              ~at:(jittered t (t.time +. d))
              (fun () -> resume t fiber k)
          end)
    | Protocol.E_park register ->
      Some
        (fun (k : (unit, unit) continuation) ->
          if not (valid t fiber) then discontinue k Killed
          else do_park t fiber register k)
    | Protocol.E_yield ->
      Some
        (fun (k : (unit, unit) continuation) ->
          if not (valid t fiber) then discontinue k Killed
          else
            do_park t fiber
              (fun w ->
                schedule t ~at:(jittered t t.time) (fun () -> Protocol.wake w))
              k)
    | _ -> None
  in
  let finished () = fiber_done t t.running in
  {
    retc = finished;
    exnc =
      (fun e ->
        finished ();
        match e with Killed -> () | e -> raise e);
    effc;
  }

let exec_fiber t fiber main =
  let h =
    match t.handler with
    | Some h -> h
    | None ->
      let h = handler t in
      t.handler <- Some h;
      h
  in
  let prev = t.running in
  let cur = enter t fiber in
  match match_with main () h with
  | () -> leave t prev cur
  | exception e ->
    leave t prev cur;
    raise e

(* Every fiber, a delivery's included, takes the next tid when it is
   made, so tids follow creation order. *)
let make_fiber t ~node ~name =
  let fiber =
    {
      tid = t.next_tid;
      node;
      name;
      inc = t.node_inc.(node);
      parked = None;
      park_gen = 0;
      listed = false;
    }
  in
  t.next_tid <- t.next_tid + 1;
  Obs.Metric.incr t.c_spawned.(node);
  fiber

let spawn_fiber t ~node ~at ~name main =
  if node < 0 || node >= t.nodes then invalid_arg "Engine.spawn: bad node";
  let fiber = make_fiber t ~node ~name in
  schedule t ~at:(jittered t at) (fun () ->
      if valid t fiber then exec_fiber t fiber main);
  fiber.tid

let spawn t ~node ?(name = "fiber") main =
  if not t.alive.(node) then invalid_arg "Engine.spawn: node is down";
  spawn_fiber t ~node ~at:t.time ~name main

let spawn_immediate t ~node ?(name = "fiber") main =
  if node < 0 || node >= t.nodes then invalid_arg "Engine.spawn_immediate";
  if not t.alive.(node) then invalid_arg "Engine.spawn_immediate: node is down";
  let fiber = make_fiber t ~node ~name in
  exec_fiber t fiber main

(* The loop keeps its counts in ints and publishes them to the registry
   when [run] returns or raises, never per event: a boxed float store per
   pop was a large share of an event's cost.  Every reader of these
   instruments runs outside [run]. *)
let publish t =
  Obs.Metric.add t.c_dispatched t.dispatched;
  t.dispatched <- 0;
  Obs.Metric.set t.g_ready (float_of_int t.ready);
  Obs.Metric.set_max t.g_ready_max (float_of_int t.ready_max)

let run ?(until = infinity) t =
  let q = t.events in
  let rec loop () =
    if not (Pqueue.is_empty q) then begin
      let at = Pqueue.min_priority q in
      if at > until then t.time <- until
      else begin
        let cb = Pqueue.pop_value q in
        if at > t.time then t.time <- at;
        t.dispatched <- t.dispatched + 1;
        let depth = Pqueue.length q in
        t.ready <- depth;
        if depth > t.ready_max then t.ready_max <- depth;
        cb ();
        loop ()
      end
    end
  in
  let prev = Domain.DLS.get current in
  Domain.DLS.set current (Some t);
  match loop () with
  | () ->
    Domain.DLS.set current prev;
    publish t
  | exception e ->
    Domain.DLS.set current prev;
    publish t;
    raise e

let crash_node t n =
  if t.alive.(n) then begin
    t.alive.(n) <- false;
    t.node_inc.(n) <- t.node_inc.(n) + 1;
    t.free_cores.(n) <- t.cores;
    let waiting = Queue.create () in
    Queue.transfer t.cpu_wait.(n) waiting;
    Queue.iter (fun (fiber, _, _, k) -> kill t fiber k) waiting;
    (* in ascending tid order, so the kill order is the spawn order and
       not the table's layout *)
    let victims =
      Tids.fold
        (fun _ fiber acc -> if fiber.node = n then fiber :: acc else acc)
        t.fibers []
      |> List.sort (fun a b -> Int.compare a.tid b.tid)
    in
    let kill_parked fiber =
      match fiber.parked with
      | Some k ->
        fiber.parked <- None;
        kill t fiber k
      | None -> ()
    in
    List.iter kill_parked victims
  end

let restart_node t n = t.alive.(n) <- true

(* Fiber-context operations. *)
(* Inside a simulator fiber the answer is its engine's clock, read
   directly; raw callbacks and fibers of other schedulers (the domains
   backend runs its own on other domains) still perform the effect. *)
let[@inline] now () =
  match Domain.DLS.get current with
  | Some t when t.running != no_fiber -> t.time
  | Some _ | None -> perform Protocol.E_now
(* [self] and [self_node] read the running fiber the same way; every lock
   operation asks for it. *)
let self () =
  match Domain.DLS.get current with
  | Some t when t.running != no_fiber -> t.running.tid
  | Some _ | None -> (perform Protocol.E_self).Protocol.fi_tid

let self_opt () =
  match Domain.DLS.get current with
  | Some t when t.running != no_fiber -> Some t.running.tid
  | Some _ | None -> (
    match perform Protocol.E_self with
    | info -> Some info.Protocol.fi_tid
    | exception Effect.Unhandled _ -> None)

let self_node () =
  match Domain.DLS.get current with
  | Some t when t.running != no_fiber -> t.running.node
  | Some _ | None -> (perform Protocol.E_self).Protocol.fi_node
let work d = perform (Protocol.E_work d)
let sleep d = perform (Protocol.E_sleep d)
let park register = perform (Protocol.E_park register)
let yield () = perform Protocol.E_yield
