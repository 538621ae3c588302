(** Deterministic discrete-event simulator with green threads.

    The simulator stands in for the paper's 12-core/24-hyperthread servers
    (see DESIGN.md §2): each node has a fixed number of CPU cores; a fiber
    consumes a core only while inside {!work}; blocking ({!park}, lock
    waits, message waits) is free.  Virtual time advances only through the
    event queue, so a whole multi-node run is reproducible from its seed.

    Scheduling nondeterminism — the raw material Rex must record and
    replay — comes from a tiny seed-dependent jitter added to every wakeup,
    which perturbs the order of causally unrelated events.

    Fibers are OCaml 5 effect handlers.  The fiber-context operations
    ({!now}, {!self}, {!work}, {!sleep}, {!park}, {!yield}) must only be
    called from inside a fiber started with {!spawn}; calling them outside
    raises [Effect.Unhandled]. *)

type t
type tid = int

exception Killed
(** Raised inside a fiber when its node crashes while it is parked or
    working. *)

(** The fiber-context effect protocol, shared between the simulator and
    the real-parallel domains backend ([lib/par]).  Fiber code performs
    these effects via the top-level wrappers below ({!now}, {!work},
    {!park}, …); whichever scheduler is running the fiber handles them.
    Code written against the wrappers therefore runs unchanged on both
    backends — only fiber {e creation} and resource {e creation} differ
    per backend (see [Par.Backend]). *)
module Protocol : sig
  type fiber_info = { fi_tid : tid; fi_node : int; fi_name : string }

  type waker = { w_fired : bool Atomic.t; w_fire : unit -> unit }
  (** A one-shot wakeup capability.  [w_fire] is backend-private; always
      go through {!wake}, which makes firing idempotent (CAS on
      [w_fired]) and safe from any domain. *)

  type _ Effect.t +=
    | E_now : float Effect.t  (** Current time (virtual or wall). *)
    | E_self : fiber_info Effect.t
    | E_work : float -> unit Effect.t
        (** Consume CPU for the given duration. *)
    | E_sleep : float -> unit Effect.t
        (** Let time pass without consuming CPU. *)
    | E_park : (waker -> unit) -> unit Effect.t
        (** Suspend; the handler passes a fresh waker to the register
            callback.  The callback runs in scheduler context: it must
            not perform effects, only stash or fire the waker. *)
    | E_yield : unit Effect.t  (** Reschedule, letting peers run. *)

  val make_waker : (unit -> unit) -> waker
  val wake : waker -> unit
end

val create : ?seed:int -> ?cores_per_node:int -> num_nodes:int -> unit -> t
(** Default [cores_per_node] is 16, matching the effective parallelism of
    the paper's 12-core hyper-threaded machines (Fig. 8 explicitly uses
    16-core machines). *)

val num_nodes : t -> int
val cores_per_node : t -> int

val add_node : t -> int
(** Grow the fabric by one node on the live simulation and return its id
    (= the previous {!num_nodes}).  The node starts alive with a true
    clock and idle cores; existing nodes, fibers and in-flight events are
    unaffected.  Used by the topology control plane: joining Paxos
    replicas and freshly split shard groups get real simulated hardware
    at runtime instead of being pre-allocated. *)

val fresh_uid : t -> int
(** Engine-scoped monotone id allocator.  Deterministic for a given seed
    and program order — used for client session identities, where a
    process-global counter would leak state across simulations and break
    per-seed reproducibility. *)

val rng : t -> Rng.t
(** The root generator; [Rng.split] it for independent streams. *)

val obs : t -> Obs.t
(** The simulation's observability context.  The engine registers its own
    instruments under subsystem ["sim"] (ready-queue depth, dispatched
    events, per-node fiber spawns and CPU-queue waits) and, when tracing
    is enabled via [Obs.enable_tracing], emits a span per [work] quantum
    and per CPU-queue wait.  Higher layers (net, runtime, paxos, rex, eve)
    hang their instruments off the same context. *)

(** {1 Driving the simulation} *)

val spawn : t -> node:int -> ?name:string -> (unit -> unit) -> tid
(** Start a fiber on [node] (which must be alive). It first runs at the
    current virtual time. *)

val spawn_immediate : t -> node:int -> ?name:string -> (unit -> unit) -> unit
(** Start a fiber and run it synchronously up to its first suspension
    point, with no start jitter.  [Net] uses this so that message handlers
    observe deliveries in FIFO order.  The fiber takes its tid now, but
    the engine keeps no record of it unless it suspends: a handler that
    runs to completion costs one record and one effect handler frame. *)

val run : ?until:float -> t -> unit
(** Execute events in time order until the queue drains or virtual time
    would exceed [until]. Can be called repeatedly to run in slices.
    [sim/events_dispatched], [sim/ready_events] (the depth after the
    last pop) and [sim/ready_events_max] are published when it returns
    or raises, not per event. *)

val clock : t -> float
(** Current virtual time, readable from outside fibers. *)

val local_clock : t -> int -> float
(** The node's own reading of the clock: [offset + rate × virtual time].
    Rate 1.0 / offset 0.0 unless a nemesis skews it.  Lease timing reads
    this, never {!clock} — a lease must survive only what real clocks
    guarantee (bounded drift), so the simulator lets them lie. *)

val clock_rate : t -> int -> float

val set_clock_rate : t -> node:int -> float -> unit
(** Skew the node's clock to advance at [rate] × virtual time from now
    on.  The local clock stays continuous across the change (the offset
    is re-based), so curing skew never steps a clock backwards.  Raises
    [Invalid_argument] on a non-positive rate. *)

(** {1 Failure injection} *)

val crash_node : t -> int -> unit
(** Kill every fiber of the node (parked fibers are resumed with {!Killed})
    and invalidate its in-flight events.  Idempotent. *)

val restart_node : t -> int -> unit
(** Mark the node alive again; the caller spawns fresh fibers for it. *)

val node_alive : t -> int -> bool

(** {1 Fiber context} *)

val now : unit -> float
val self : unit -> tid

val self_opt : unit -> tid option
(** [None] when called outside any fiber (e.g. during test setup or from a
    raw {!schedule} callback). *)

val self_node : unit -> int
(** The node the calling fiber runs on. *)

val work : float -> unit
(** Consume [d] seconds of CPU on this fiber's node: waits for a free core,
    holds it for [d] virtual seconds, releases it. *)

val sleep : float -> unit
(** Advance virtual time without consuming CPU. *)

val yield : unit -> unit
(** Reschedule at the current time (with jitter), letting peers run. *)

(** {2 Parking} *)

type waker = Protocol.waker

val park : (waker -> unit) -> unit
(** [park register] suspends the fiber and hands a one-shot {!waker} to
    [register]; the fiber resumes when {!wake} is called on it.  The waker
    may be invoked from any context (another fiber, a timer, a network
    delivery), and invoking it more than once is harmless. *)

val wake : waker -> unit

(** {1 Statistics} *)

val busy_time : t -> int -> float
(** Total core-seconds consumed on a node so far; sample it twice to derive
    utilization over a window. *)

val suspended_fibers : t -> int
(** Fibers that have suspended ({!work}, {!sleep}, {!park}, {!yield}) and
    not finished.  A fiber that runs to completion without suspending,
    as most message deliveries do, is never counted. *)

(** {1 Low-level scheduling (used by [Net])} *)

val schedule : t -> at:float -> (unit -> unit) -> unit
(** Run a raw callback at time [at].  The callback executes outside any
    fiber: it must not use fiber-context operations, only mutate state,
    call {!wake}, or {!spawn}. *)

type event
(** A callback scheduled by {!schedule_event}. *)

val schedule_event : t -> at:float -> (unit -> unit) -> event
(** {!schedule}, returning the event so that it can be cancelled. *)

val cancel : t -> event -> unit
(** Drop a scheduled event before it runs; a no-op once it has run or
    been cancelled. *)

val jittered : t -> float -> float
(** [jittered t at] = [at] plus a tiny seed-dependent epsilon; use it to
    randomize the order of simultaneous events. *)
