(** The log-order server core shared by the consensus-execute stacks
    (SMR, the CBASE/early sched stacks and Eve; DESIGN.md §7, §12).

    The core owns everything those stacks have in common: the replica's
    session-wrapped app and {!Session.Table.t}, the agree stage
    ({!Agreement.of_paxos}), the {!Frontend} registration (leases, read
    index, admission over the proposal queue), the batcher that turns
    the queue into proposals, the timer fibers that propose ticks, the
    [on_new_leader] flush, decoding each committed batch and pairing it
    with the leader's reply callbacks, and handing committed batches to
    the stack in log order (also on {!replay}).

    The batcher has no clock of its own.  The leader proposes whenever
    requests are queued and the agree stage takes another value: on an
    arrival, a timer's tick, the commit of one of its instances, the end
    of each executed batch and the end of a membership change.  At the
    default [Config.pipeline_depth] of 4 a request that arrives while
    fewer than four instances are open goes out at once in another; at
    depth 1 it waits for the open instance's commit.

    A stack supplies an {!executor}: what it does with a committed
    batch, how it gates a local read, how far it has applied, how it
    forms a batch and whether its batches await execution.  A deposed
    leader answers [None] for every request of every instance it still
    had open.

    Timer ticks travel through the log as reserved-prefix requests
    ("\x00TIMER:<index>").  Only the core's timer fibers produce them:
    a client request with that prefix is answered [None] at intake. *)

type callback = string option -> unit

(** One entry of a committed batch, decoded by the core. *)
type item =
  | Request of string * callback option
      (** a client request (still session-enveloped), with its reply
          callback on the replica whose proposal committed it *)
  | Tick of (unit -> unit)
      (** an application timer callback, due at this log position *)

type executor = {
  deliver : int -> item list -> unit;
      (** run committed instance [i]'s batch; called on the core's
          executor fiber, in log order, and may park *)
  gate_read : string -> unit;
      (** park the calling fiber until a local read of this request may
          observe the state (lease and quorum reads) *)
  applied : unit -> int;
      (** highest instance whose effects are fully queryable, [-1] while
          mid-batch state is not *)
  form_batch : (string * callback) Queue.t -> (string * callback) list;
      (** take the next proposal's requests from the leader's queue, in
          the order they will execute; requests left behind stay queued *)
  await_execution : bool;
      (** [true]: propose a batch only while none of the leader's
          instances is open and the executor has run every committed
          batch, so requests that arrive during a batch join the next
          one (Eve, whose per-batch snapshot and verify need full
          batches); [false]: propose while fewer than
          [cfg.pipeline_depth] instances are open (SMR, CBASE, early;
          4 by default) *)
}

(** What a stack's executor is built from. *)
type env = {
  eng : Sim.Engine.t;
  net : Sim.Net.t;
  backend : Par.Backend.t;
  node : int;
  cfg : Config.t;
  app : App.t;  (** session-wrapped, with the in-execute duplicate check *)
  inner : App.t;  (** the same app unwrapped *)
  session : Session.Table.t;
  n_timers : int;  (** background timers the app registered *)
  leader_hint : unit -> int option;
}

type 'x t
(** A replica whose executor carries stack state ['x]. *)

val create :
  Sim.Net.t ->
  Sim.Rpc.t ->
  Config.t ->
  node:int ->
  paxos_store:Paxos.Store.t ->
  stack:string ->
  (env -> 'x * executor) ->
  App.factory ->
  'x t
(** [stack] labels the session table's metrics and names the core's
    fibers.  The core reads [cfg]'s replicas, election, lease,
    admission and [pipeline_depth] fields. *)

val take : int -> (string * callback) Queue.t -> (string * callback) list
(** The plain batcher: up to [n] requests in arrival order. *)

val start : 'x t -> unit

val replay : 'x t -> unit
(** Queue the store's committed prefix for re-execution — the rolling
    upgrade path: a replacement server [create]d over the retired
    server's {!Paxos.Store.t} calls this before {!start} to rebuild app
    and session state (these stacks have no checkpoint recovery). *)

val state : 'x t -> 'x
val node : 'x t -> int
val is_primary : 'x t -> bool
val app : 'x t -> App.t
val session_table : 'x t -> Session.Table.t
val frontend : 'x t -> Frontend.t

val peers : 'x t -> int list
(** Current membership (the agree stage's [peers]; the configured replicas
    before {!start}). *)

val reconfig : 'x t -> int list -> bool
(** Propose a new membership through the log
    ([Agreement.t]'s [reconfig]: one replica added or removed).  The agree
    stage holds the batcher, proposes the config entry once the open
    instances have committed, and releases the batcher once the entry
    is delivered; [false] on a non-leader or while a change is already
    under way.  A newcomer catches up through Paxos [Learn] over
    the log, which this core never truncates. *)

val submit : 'x t -> string -> callback -> unit
(** Queue a request on the leader; [None] elsewhere and for requests
    with the reserved tick prefix. *)

val query : 'x t -> string -> string
val app_digest : 'x t -> string
