(** Per-replica record/replay runtime (paper §4).

    One runtime exists per replica process.  Worker and timer fibers bind
    themselves to {e thread slots}; the slot — identical on every replica —
    names the thread in trace events.  Depending on the runtime {!mode},
    the synchronization wrappers ({!Lock}, {!Rwlock}, {!Condvar}, {!Sem})
    route through the record path (append events and causal edges to the
    growing trace) or the replay path (await the next trace event, wait
    for its causal edges on the scoreboard, then perform the real
    operation).  Fibers bound to no slot — or inside {!native_exec} —
    always take the native path, enabling the paper's hybrid execution
    (read-only queries on a replica that is recording or replaying).

    Record-time causal-edge reduction (§4.2) is vector-clock based: an
    edge whose source the destination slot's clock already dominates is
    implied by program order and transitivity, and is dropped. *)

exception Divergence of string
(** Replay observed something other than what the trace prescribes —
    symptom of an unrecorded nondeterminism source (e.g. a data race).
    Carries a diagnostic naming the resource, slot and versions involved,
    mirroring Rex's resource-version checking (§5). *)

exception Replay_interrupted
(** Raised out of a replaying wrapper when {!interrupt_replay} tears the
    replica's execution context down mid-request. *)

type mode = Record | Replay | Native

type t

val create :
  ?reduce_edges:bool ->
  ?partial_order:bool ->
  ?check_versions:bool ->
  ?record_cost:float ->
  ?base:Trace.Cut.t ->
  Par.Backend.t ->
  node:int ->
  slots:int ->
  t
(** [reduce_edges] (default true): drop causal edges implied by program
    order + transitivity.  [partial_order] (default true): record
    ground-truth edges for try-lock / readers-writer operations rather
    than a per-resource total order (paper Fig. 4).  [check_versions]
    (default true): verify resource versions during replay.
    [record_cost] (virtual seconds, default 0) models the per-event
    instruction overhead of logging.  Replay dispatch is not charged.
    [base]: the checkpoint cut this replica's execution resumes from. *)

val backend : t -> Par.Backend.t

val guarded : t -> (unit -> 'a) -> 'a
(** Run [f] under the backend's record/replay guard (reentrant; a plain
    call on deterministic backends).  Wrappers use this around their
    bookkeeping so that fibers on real domains cannot interleave inside
    it; guarded sections must not block (see [Par.Guard]). *)

val engine : t -> Sim.Engine.t
(** The simulator engine, for sim-only consumers (networked consensus,
    fault injection).  Raises [Invalid_argument] when the runtime sits
    on a non-simulator backend. *)

val node : t -> int
val num_slots : t -> int
val trace : t -> Trace.t
val mode : t -> mode
val set_mode : t -> mode -> unit
val reduce_edges : t -> bool
val partial_order : t -> bool

(** {1 Fiber ↔ slot binding} *)

val bind_slot : t -> int -> unit
(** Bind the calling fiber to a slot (at most one fiber per slot). *)

val unbind_slot : t -> unit

val current_slot : t -> int option
(** The calling fiber's slot, or [None] for unbound fibers and inside
    {!native_exec}. *)

val effective_mode : t -> mode
(** The runtime mode, demoted to [Native] for unbound fibers and inside
    {!native_exec} scopes. *)

val native_exec : t -> (unit -> 'a) -> 'a
(** The paper's [NATIVE_EXEC] macro: run [f] with recording/replaying
    suspended on this fiber, for explicitly-tolerated benign races. *)

(** {1 Resources} *)

val fresh_resource_id : t -> string -> int
(** Deterministic uid for a lock/semaphore/timer.  Uids allocated during
    replica initialization (outside any slot) come from a global counter;
    uids allocated inside a request handler come from a per-slot counter,
    so they coincide across replicas regardless of thread interleaving. *)

val resource_name : t -> int -> string

val register_versioned : t -> int -> get:(unit -> int) -> set:(int -> unit) -> unit
(** Wrappers register their version counter so checkpoints can snapshot
    and restore it. *)

val version_snapshot : t -> (int * int) list
val restore_versions : t -> (int * int) list -> unit

(** {1 Record path} *)

type source
(** An event that may later become the source of a causal edge, together
    with the vector clock it carried (for redundancy elimination). *)

val source_id : source -> Event.Id.t

val record :
  t ->
  kind:Event.kind ->
  resource:int ->
  ?version:int ->
  ?payload:string ->
  source list ->
  source
(** Append an event on the calling fiber's slot, adding a causal edge from
    each source that is not already implied ([reduce_edges]).  Returns the
    event as a potential future source. *)

(** {1 Replay path} *)

val await_next : t -> [ `Event of Event.t | `Record_now | `Interrupted ]
(** Next trace event for the calling fiber's slot, parking until the trace
    has grown enough.  [`Record_now] when the runtime switched to record
    mode while waiting (a secondary being promoted mid-request);
    [`Interrupted] after {!interrupt_replay}. *)

val take :
  t -> kinds:Event.kind list -> resource:int ->
  [ `Event of Event.t | `Record_now ]
(** [await_next] + validate kind and resource + wait for incoming causal
    edges on the scoreboard.  Raises {!Divergence} on mismatch and
    {!Replay_interrupted} on interrupt.  The caller performs the real
    operation, then calls {!complete}. *)

val check_version : t -> Event.t -> actual:int -> unit
(** Raise {!Divergence} if version checking is on and the versions differ. *)

val complete : t -> Event.t -> unit
(** Mark the event replayed: advance the scoreboard and wake dependents. *)

val replay_source : t -> Event.t -> source
(** A {!source} for a replayed event, so wrappers keep their causal-edge
    bookkeeping warm across a replay→record mode switch (promotion). *)

val feed_progress : t -> unit
(** Call after appending to the trace (e.g. applying a committed delta):
    wakes fibers parked in {!await_next}. *)

val interrupt_replay : t -> unit
(** Make all pending and future {!await_next} calls return [None] — used
    when a secondary is promoted and must stop replaying. *)

val executed_cut : t -> Trace.Cut.t

val recorded_cut : t -> Trace.Cut.t
(** End of the recorded trace ({!Trace.end_cut} of {!trace}). *)

val recorded_leq : t -> Trace.Cut.t -> bool
(** [Trace.Cut.leq (recorded_cut t) c], without allocating the cut. *)

val holds : t -> Trace.Cut.t -> bool
(** [Trace.Cut.leq c (recorded_cut t)], without allocating the cut. *)

val recorded_total : t -> int
(** Events recorded so far, summed over slots ({!Trace.end_total} of
    {!trace}); allocation-free on the simulator. *)

(** {1 Trace memory bounds} *)

val compact_trace : t -> upto:Trace.Cut.t -> unit
(** Reclaim trace memory below a stable checkpoint cut (see
    {!Trace.compact}).  The cut is clamped to what this replica has
    recorded — and, in replay mode, executed — so calling with a cut the
    replica has not fully caught up to performs a partial compaction
    rather than corrupting replay.  Updates the [trace/*] residency
    gauges and the [trace/compactions] counter. *)

(** {1 Nondeterministic functions} *)

val nondet : t -> (unit -> string) -> string
(** Record mode: run the function and record its result in the trace.
    Replay: return the recorded result without running it.  Native: run
    it. *)

(** {1 Statistics (cumulative; sample twice for a window)} *)

type stats = {
  events_recorded : int;
  edges_recorded : int;
  edges_reduced : int;  (** edges dropped as redundant (§4.2) *)
  events_replayed : int;
  waited_events : int;  (** replayed events that had to park — Fig. 7's "waited events" *)
  nondet_recorded : int;
}

val stats : t -> stats
