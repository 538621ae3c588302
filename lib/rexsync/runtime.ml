open Sim

exception Divergence of string
exception Replay_interrupted

type mode = Record | Replay | Native

type fiber_ctx = { slot : int; mutable native_depth : int }

module Tids = Hashtbl.Make (Int)

type stats = {
  events_recorded : int;
  edges_recorded : int;
  edges_reduced : int;
  events_replayed : int;
  waited_events : int;
  nondet_recorded : int;
}

type t = {
  bk : Par.Backend.t;
  guard : Par.Guard.t option;
      (* cached from [bk]; [None] on deterministic backends, where
         [guarded] collapses to a plain call *)
  node : int;
  slots : int;
  tr : Trace.t;
  sbd : Scoreboard.t;
  mutable md : mode;
  vcs : Vclock.t array;
  bound : fiber_ctx Tids.t;
  slot_owner : Engine.tid option array;
  resource_names : (int, string) Hashtbl.t;
  versioned : (int, (unit -> int) * (int -> unit)) Hashtbl.t;
  mutable global_res_counter : int;
  slot_res_counter : int array;
  mutable feed_waiters : (int * Engine.waker) list;  (* parked replay slots *)
  mutable interrupted : bool;
  do_reduce_edges : bool;
  do_partial_order : bool;
  do_check_versions : bool;
  record_cost : float;
  obs : Obs.t;
  c_recorded : Obs.Metric.counter;
  c_edges : Obs.Metric.counter;
  c_reduced : Obs.Metric.counter;
  c_replayed : Obs.Metric.counter;
  c_waited : Obs.Metric.counter;
  c_nondet : Obs.Metric.counter;
  h_replay_wait : Obs.Histogram.t;
  c_compactions : Obs.Metric.counter;
  g_resident_events : Obs.Metric.gauge;
  g_resident_edges : Obs.Metric.gauge;
  g_incoming_entries : Obs.Metric.gauge;
}

(* Resource uid scheme: uids minted during initialization (no slot bound)
   use stripe 0; uids minted inside slot [s] use stripe [s+1].  Stripes
   keep uid assignment deterministic across replicas even when handlers
   on different slots create resources concurrently. *)
let max_slots = 62

let create ?(reduce_edges = true) ?(partial_order = true)
    ?(check_versions = true) ?(record_cost = 0.) ?base bk
    ~node ~slots =
  if slots <= 0 || slots > max_slots then
    invalid_arg "Runtime.create: slots out of range";
  let guard = Par.Backend.guard bk in
  let sbd = Scoreboard.create ?guard ~slots () in
  (match base with Some b -> Scoreboard.reset sbd b | None -> ());
  let obs = Par.Backend.obs bk in
  (* Counters live in the backend's registry keyed by node, so a runtime
     rebuilt on the same node (e.g. after promotion) keeps accumulating
     into the same series rather than starting a parallel one. *)
  let labels = [ ("node", string_of_int node) ] in
  let c name = Obs.counter obs ~subsystem:"rexsync" ~labels name in
  let tg name = Obs.gauge obs ~subsystem:"trace" ~labels name in
  {
    bk;
    guard;
    node;
    slots;
    tr = Trace.create ?base ~slots ();
    sbd;
    md = Record;
    vcs = Array.init slots (fun _ -> Vclock.create ~slots);
    bound = Tids.create 32;
    slot_owner = Array.make slots None;
    resource_names = Hashtbl.create 64;
    versioned = Hashtbl.create 64;
    global_res_counter = 0;
    slot_res_counter = Array.make slots 0;
    feed_waiters = [];
    interrupted = false;
    do_reduce_edges = reduce_edges;
    do_partial_order = partial_order;
    do_check_versions = check_versions;
    record_cost;
    obs;
    c_recorded = c "events_recorded";
    c_edges = c "edges_recorded";
    c_reduced = c "edges_reduced";
    c_replayed = c "events_replayed";
    c_waited = c "waited_events";
    c_nondet = c "nondet_recorded";
    h_replay_wait = Obs.histogram obs ~subsystem:"rexsync" ~labels "replay_wait";
    c_compactions = Obs.counter obs ~subsystem:"trace" ~labels "compactions";
    g_resident_events = tg "resident_events";
    g_resident_edges = tg "resident_edges";
    g_incoming_entries = tg "incoming_entries";
  }

let backend t = t.bk
let engine t = Par.Backend.sim_engine_exn t.bk
let node t = t.node
let num_slots t = t.slots
let trace t = t.tr
let mode t = t.md
let set_mode t m = t.md <- m
let reduce_edges t = t.do_reduce_edges
let partial_order t = t.do_partial_order

let guarded t f = match t.guard with None -> f () | Some g -> Par.Guard.with_ g f

(* --- Trace residency and compaction --- *)

let refresh_gauges_locked t =
  Obs.Metric.set t.g_resident_events (float_of_int (Trace.event_count t.tr));
  Obs.Metric.set t.g_resident_edges (float_of_int (Trace.edge_count t.tr));
  Obs.Metric.set t.g_incoming_entries
    (float_of_int (Trace.incoming_entries t.tr))

let compact_trace t ~upto =
  guarded t (fun () ->
      (* Clamp to what this replica has actually recorded — and, while
         replaying, executed: a replayer must never lose events its
         scoreboard has not passed.  A lagging replica compacts as far as is
         safe now and finishes the job at the next stable checkpoint. *)
      let safe = Trace.Cut.min upto (Trace.end_cut t.tr) in
      let safe =
        match t.md with
        | Replay -> Trace.Cut.min safe (Scoreboard.cut t.sbd)
        | Record | Native -> safe
      in
      let before = Trace.compactions t.tr in
      Trace.compact t.tr ~upto:safe;
      if Trace.compactions t.tr <> before then Obs.Metric.incr t.c_compactions;
      refresh_gauges_locked t)

(* --- Fiber binding ---

   [bound] and [slot_owner] writes are guarded; reads are not.  This is
   safe on the domains backend because the table never resizes (at most
   [max_slots] live bindings against 32 buckets) and a fiber only ever
   looks up its *own* binding, which it wrote itself — the pool's queue
   transfer orders that write before any later read from another
   domain. *)

let bind_slot t slot =
  if slot < 0 || slot >= t.slots then invalid_arg "Runtime.bind_slot";
  let tid = Engine.self () in
  guarded t (fun () ->
      (match t.slot_owner.(slot) with
      | Some _ -> invalid_arg "Runtime.bind_slot: slot already bound"
      | None -> ());
      Tids.replace t.bound tid { slot; native_depth = 0 };
      t.slot_owner.(slot) <- Some tid)

let unbind_slot t =
  let tid = Engine.self () in
  guarded t (fun () ->
      match Tids.find_opt t.bound tid with
      | None -> ()
      | Some ctx ->
        Tids.remove t.bound tid;
        t.slot_owner.(ctx.slot) <- None)

let ctx t =
  match Engine.self_opt () with
  | None -> None
  | Some tid -> Tids.find_opt t.bound tid

let current_slot t =
  match ctx t with
  | Some c when c.native_depth = 0 -> Some c.slot
  | Some _ | None -> None

let effective_mode t =
  match current_slot t with Some _ -> t.md | None -> Native

let native_exec t f =
  match ctx t with
  | None -> f ()
  | Some c ->
    c.native_depth <- c.native_depth + 1;
    Fun.protect ~finally:(fun () -> c.native_depth <- c.native_depth - 1) f

let required_slot t =
  match current_slot t with
  | Some s -> s
  | None -> invalid_arg "Rex runtime: calling fiber is not bound to a slot"

(* --- Resources --- *)

let fresh_resource_id t name =
  let slot = current_slot t in
  guarded t (fun () ->
      let uid =
        match slot with
        | None ->
          let k = t.global_res_counter in
          t.global_res_counter <- k + 1;
          k * (max_slots + 2)
        | Some s ->
          let k = t.slot_res_counter.(s) in
          t.slot_res_counter.(s) <- k + 1;
          (k * (max_slots + 2)) + s + 1
      in
      Hashtbl.replace t.resource_names uid name;
      uid)

let resource_name t uid =
  guarded t (fun () ->
      Option.value
        (Hashtbl.find_opt t.resource_names uid)
        ~default:(Printf.sprintf "resource#%d" uid))

(* Resource-version snapshots ride inside checkpoints so that a replica
   rebuilt from one resumes divergence checking with correct counters. *)
let register_versioned t uid ~get ~set =
  guarded t (fun () -> Hashtbl.replace t.versioned uid (get, set))

let version_snapshot t =
  guarded t (fun () ->
      Hashtbl.fold (fun uid (get, _) acc -> (uid, get ()) :: acc) t.versioned []
      |> List.sort compare)

let restore_versions t versions =
  guarded t (fun () ->
      List.iter
        (fun (uid, v) ->
          match Hashtbl.find_opt t.versioned uid with
          | Some (_, set) -> set v
          | None -> ())
        versions)

(* --- Record path --- *)

type source = { sid : Event.Id.t; svc : Vclock.t }

(* A replayed event's source knows only the event itself ([replay_source]):
   one shared clock marks that, and joining it is [Vclock.observe]. *)
let just_the_event = Vclock.create ~slots:0

let source_id s = s.sid

(* Does a source before [here] in [srcs] carry [sid]?  A list scan: a
   record has at most a few sources. *)
let rec seen_before (sid : Event.Id.t) here = function
  | l when l == here -> false
  | [] -> false
  | s :: rest ->
    (s.sid.slot = sid.slot && s.sid.clock = sid.clock) || seen_before sid here rest

let rec add_srcs t vc (id : Event.Id.t) srcs = function
  | [] -> ()
  | src :: rest as here ->
    if src.sid.slot <> id.slot && not (seen_before src.sid here srcs) then begin
      if t.do_reduce_edges && Vclock.dominates vc src.sid then
        Obs.Metric.incr t.c_reduced
      else begin
        Trace.add_edge t.tr ~src:src.sid ~dst:id;
        Obs.Metric.incr t.c_edges
      end;
      if src.svc == just_the_event then Vclock.observe vc src.sid
      else Vclock.join vc src.svc
    end;
    add_srcs t vc id srcs rest

let record t ~kind ~resource ?(version = 0) ?(payload = "") srcs =
  let slot = required_slot t in
  let src =
    guarded t (fun () ->
        if t.md <> Record then
          invalid_arg "Runtime.record: runtime is not in record mode";
        let clock = Trace.slot_end t.tr slot + 1 in
        let id : Event.Id.t = { slot; clock } in
        Trace.append t.tr { Event.id; kind; resource; version; payload };
        Obs.Metric.incr t.c_recorded;
        let vc = t.vcs.(slot) in
        ignore (Vclock.tick vc slot);
        add_srcs t vc id srcs srcs;
        refresh_gauges_locked t;
        { sid = id; svc = Vclock.copy vc })
  in
  (* Model the instruction overhead of logging an event (paper §6.3:
     recording costs the primary <= 5%).  Charged after the append so the
     trace bookkeeping itself stays atomic.  Safe even when the caller
     holds the guard: the domains backend spins [work] in place. *)
  if t.record_cost > 0. then Engine.work t.record_cost;
  src

(* --- Replay path --- *)

(* A parked replay slot can move on: its next event has arrived, or
   replay is over. *)
let can_move t slot =
  t.interrupted || t.md <> Replay
  || Trace.slot_end t.tr slot > Scoreboard.watermark t.sbd slot

(* Wake only the slots a commit gave work: with a request or two per
   commit, most slots have none. *)
let feed_progress t =
  let ws =
    guarded t (fun () ->
        (* The trace just grew (a committed delta was applied); keep the
           residency gauges current on replicas that never record. *)
        refresh_gauges_locked t;
        let ready, parked =
          List.partition (fun (slot, _) -> can_move t slot) t.feed_waiters
        in
        t.feed_waiters <- parked;
        ready)
  in
  List.iter (fun (_, w) -> Engine.wake w) ws

let interrupt_replay t =
  t.interrupted <- true;
  feed_progress t

let await_next t =
  let slot = required_slot t in
  let probe () =
    if t.interrupted then `Interrupted
    else if t.md <> Replay then `Record_now
    else
      let clock = Scoreboard.watermark t.sbd slot + 1 in
      match Trace.find t.tr { slot; clock } with
      | Some e -> `Event e
      | None -> `Park
  in
  let rec loop () =
    match guarded t probe with
    | (`Interrupted | `Record_now | `Event _) as r -> r
    | `Park ->
      (* Re-probe inside the park register: on the domains backend a
         feed can land between the probe above and the enqueue, and its
         wake would be lost.  On the simulator nothing runs in between,
         so the wake-immediately branch is dead and the event sequence
         is unchanged. *)
      Engine.park (fun w ->
          guarded t (fun () ->
              match probe () with
              | `Park -> t.feed_waiters <- (slot, w) :: t.feed_waiters
              | `Interrupted | `Record_now | `Event _ -> Engine.wake w));
      loop ()
  in
  loop ()

let divergence fmt = Fmt.kstr (fun msg -> raise (Divergence msg)) fmt

let take t ~kinds ~resource =
  match await_next t with
  | `Interrupted -> raise Replay_interrupted
  | `Record_now -> `Record_now
  | `Event e ->
    if not (List.mem e.Event.kind kinds) then
      divergence
        "slot %d: trace expects %s on %s, but execution performed %s on %s"
        e.id.slot
        (Event.kind_to_string e.kind)
        (resource_name t e.resource)
        (String.concat "|" (List.map Event.kind_to_string kinds))
        (resource_name t resource)
    else if e.resource <> resource then
      divergence
        "slot %d: trace expects %s on %s, but execution touched %s" e.id.slot
        (Event.kind_to_string e.kind)
        (resource_name t e.resource)
        (resource_name t resource)
    else begin
      let parked = ref false in
      let t0 = Engine.now () in
      let incoming = guarded t (fun () -> Trace.incoming t.tr e.id) in
      List.iter
        (fun src -> if Scoreboard.wait_for t.sbd src then parked := true)
        incoming;
      if !parked then begin
        Obs.Metric.incr t.c_waited;
        let waited = Engine.now () -. t0 in
        Obs.Histogram.observe t.h_replay_wait waited;
        let sp = Obs.spans t.obs in
        if Obs.Span.enabled sp then
          Obs.Span.complete sp ~cat:"rexsync" ~pid:t.node
            ~tid:(Engine.self ()) ~name:"replay_wait" ~ts:t0 ~dur:waited ()
      end;
      `Event e
    end

let check_version t (e : Event.t) ~actual =
  if t.do_check_versions && e.version <> actual then
    divergence
      "slot %d: resource %s version mismatch at %a: recorded %d, replica \
       observed %d (likely an unrecorded data race)"
      e.id.slot
      (resource_name t e.resource)
      Event.Id.pp e.id e.version actual

let complete t (e : Event.t) =
  guarded t (fun () ->
      Scoreboard.advance t.sbd ~slot:e.id.slot ~clock:e.id.clock;
      (* Keep the slot's own vector-clock component in step with its clock so
         edge reduction stays sound after a replay→record switch. *)
      ignore (Vclock.tick t.vcs.(e.id.slot) e.id.slot);
      Obs.Metric.incr t.c_replayed)

let executed_cut t = Scoreboard.cut t.sbd
let recorded_cut t = guarded t (fun () -> Trace.end_cut t.tr)
let recorded_leq t cut = guarded t (fun () -> Trace.end_leq t.tr cut)
let holds t cut = guarded t (fun () -> Trace.holds t.tr cut)

let recorded_total t =
  match t.guard with
  | None -> Trace.end_total t.tr
  | Some g -> Par.Guard.with_ g (fun () -> Trace.end_total t.tr)

(* Wrappers keep their edge-source bookkeeping warm during replay so that
   a promoted secondary records correct edges from its very first
   operation.  The vector clock attached is a sound under-approximation
   (just the event itself): reduction keeps more edges than strictly
   needed right after a promotion, never fewer. *)
let replay_source (_ : t) (e : Event.t) = { sid = e.id; svc = just_the_event }

(* --- Nondet --- *)

let rec nondet t f =
  match effective_mode t with
  | Native -> f ()
  | Record ->
    let v = f () in
    Obs.Metric.incr t.c_nondet;
    ignore (record t ~kind:Event.Nondet ~resource:0 ~payload:v []);
    v
  | Replay -> (
    match take t ~kinds:[ Event.Nondet ] ~resource:0 with
    | `Record_now -> nondet t f
    | `Event e ->
      complete t e;
      e.payload)

(* Thin view over the registry counters (subsystem "rexsync", labelled by
   node).  Cumulative per (backend, node), not per runtime instance. *)
let stats t =
  {
    events_recorded = Obs.Metric.value t.c_recorded;
    edges_recorded = Obs.Metric.value t.c_edges;
    edges_reduced = Obs.Metric.value t.c_reduced;
    events_replayed = Obs.Metric.value t.c_replayed;
    waited_events = Obs.Metric.value t.c_waited;
    nondet_recorded = Obs.Metric.value t.c_nondet;
  }
