(** The conflict-aware execution stage shared by both sched stacks
    (DESIGN.md §12): a pool of worker fibers on a {!Par.Backend.t} —
    deterministic fibers on the simulator, real domains on [Par.Domains]
    — executing an ordered request stream in parallel wherever the
    conflict oracle allows.

    [Cbase] dispatches from a conflict DAG ({!Dag}); [Early] maps
    conflict classes to workers at admission time, synchronizing
    multi-class requests with rendezvous barriers.  Requests whose
    oracle returns [[]] (no known keys) serialize against everything,
    enveloped or not.  A session client's requests never run at once:
    [Cbase] orders them by a DAG edge on {!Conflict.session_key},
    [Early] by a precedence wait on the client's previous request.

    Admission order is execution order wherever conflicts exist, so a
    serial replay of the same stream yields the same state. *)

type mode = Cbase | Early

val mode_name : mode -> string

type t

val create :
  Par.Backend.t ->
  node:int ->
  mode:mode ->
  workers:int ->
  conflict:(string -> string list) ->
  execute:(string -> string) ->
  t
(** Spawns [workers] worker fibers on [backend] for [node].  [conflict]
    is the app-level oracle (session envelopes are decoded here, see
    {!Conflict.claim}); [execute] the app step function.
    Raises [Invalid_argument] when [workers <= 0]. *)

val admit : t -> string -> (string -> unit) -> unit
(** Admit the next committed request (call in log order).  The callback
    fires with the response on the executing worker fiber, after
    bookkeeping — safe to complete client RPCs from. *)

val admit_barrier : t -> (unit -> unit) -> unit
(** Admit a global barrier (timer tick): runs after everything admitted
    before it, before everything admitted after. *)

val park_until_quiet : t -> string list -> unit
(** Block the calling fiber until no admitted-but-uncompleted task
    claims any of [keys] ([[]] = until fully idle) — the read-routing
    gate parking lease/quorum reads behind in-flight conflicting
    writes. *)

val busy : t -> string list -> bool
val drain : t -> unit
(** Block until everything admitted so far has executed (checkpoint
    cut points). *)

val pending : t -> int
val mode : t -> mode

val shutdown : t -> unit
(** Ask idle workers to exit once the queues are empty (lets
    [Par.Domains.join] return in benches; unnecessary on sim). *)

type stats = {
  executed : int;
  barriers : int;
  barrier_stalls : int;  (** early: workers stalled at a rendezvous *)
  precedence_waits : int;
      (** early: tasks held for their client's previous request *)
  wakeups : int;
      (** times a worker waiting for work was woken: cbase wakes one
          worker per newly ready task, early the task's owners *)
  graph_max : int;
  ready_max : int;
  busy_time : float;  (** summed worker-seconds spent executing *)
}

val stats : t -> stats
