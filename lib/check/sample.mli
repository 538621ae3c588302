(** Bounded-memory history recorder for open-loop load runs.

    {!History} keeps every cell of every operation — the right tool for
    the closed-loop harness, unusable at 10^5–10^6 sessions.  This
    recorder keeps memory bounded by two levers and still produces a
    sound linearizability verdict for what it watched:

    - {e key reservoir}: Algorithm-R sampling over distinct partition
      keys at first occurrence, so at most [keys_cap] keys are ever
      tracked and each tracked key's history is complete from its first
      op (known initial state).  Ops on untracked keys are counted and
      dropped.
    - {e online windowed checking}: each tracked key buffers completed
      ops only until a quiescent cut, then advances the {!Window}
      configuration set and discards the buffer.  If a key refuses to
      quiesce before [window_cap] buffered ops, its state is re-anchored
      at the ⊥ configuration (buffer dropped, counted in
      [stats.resets]) — memory stays bounded at the cost of checking
      that segment best-effort from an unknown state.

    Rejection accounting: an op the load engine reports terminally shed
    (every attempt answered [Busy]) was never admitted, so it must never
    commit.  {!reject} records the payload; a later commit tap for it —
    or one observed before the client gave up — is flagged as a
    violation.  Commit taps ({!wire}) also catch double execution
    directly: two commits for one live payload is the dedup-off
    signature, reported without waiting for the windowed search to
    notice the state skew.

    Thread-safe: every entry point takes an internal lock, so callers on
    the domains backend may record concurrently.  Timestamps are passed
    in explicitly ([~now]) — the recorder never touches an engine
    clock. *)

type t

type violation = { v_key : string; v_kind : string; v_detail : string }
(** [v_kind] is one of ["non-linearizable"], ["double-commit"],
    ["rejected-op-committed"], ["unresolved-commit"]. *)

type stats = {
  seen_keys : int;  (** distinct partition keys observed *)
  tracked_keys : int;
  evicted_keys : int;  (** tracked keys displaced by the reservoir *)
  recorded_ops : int;
  skipped_ops : int;  (** untracked key, evicted mid-flight, or ⊥ reset *)
  dropped_ambiguous_reads : int;
  rejected_ops : int;
  windows : int;
  resets : int;  (** ⊥ re-anchors forced by [window_cap] *)
  max_live_ops : int;
      (** high-water mark of in-flight + buffered ops — the memory bound *)
  commits_seen : int;
  double_commits : int;
  limited : bool;  (** some window tripped a search budget *)
}

val create :
  ?keys_cap:int ->
  ?window_cap:int ->
  ?max_steps:int ->
  ?max_configs:int ->
  seed:int ->
  Spec.t ->
  t
(** Defaults: [keys_cap] 64 tracked keys, [window_cap] 512 buffered ops
    per key before a ⊥ reset; a window advances at every quiescent cut.
    [seed] drives the reservoir's coin only. *)

val wire : t -> Rex_core.Frontend.t list -> unit
(** Attach commit/dup taps (replacing any previous tap) — enables fate
    resolution, double-commit detection, and rejection accounting. *)

val invoke : t -> now:float -> client:int -> request:string -> int
(** Record an invocation; returns an op token, or [-1] if the key is
    untracked (pass it to {!finish}/{!reject} anyway — they ignore it). *)

val finish : t -> now:float -> int -> string option -> unit
(** [Some resp]: the client saw [resp].  [None]: the client gave up; a
    write becomes ambiguous (or commit-resolved if a tap saw it). *)

val reject : t -> now:float -> int -> unit
(** The op was terminally refused admission (shed): excluded from
    linearization, watched for the must-never-commit invariant. *)

val finalize : t -> unit
(** Flush every residual buffer (ops still in flight become ambiguous)
    and close every tracked key's configuration set.  Call once, after
    the run settles and before {!violations}/{!ok}. *)

val violations : t -> violation list
val ok : t -> bool
(** No violations and no budget tripped. *)

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit
