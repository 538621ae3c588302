(** Windowed Wing–Gill linearizability checking for open-loop histories.

    The full checker ({!Lin}) keeps the entire history in memory and
    searches it in one piece — fine for the closed-loop correctness
    harness (thousands of ops), hopeless for an open-loop run with 10^5+
    sessions.  This module splits each per-key partition at {e quiescent
    cuts} — instants at which every operation invoked earlier has already
    returned — and checks window by window, carrying across each cut the
    exact set of reachable {e configurations}: a model state plus the
    still-undecided operations (return time +∞: the client gave up, or a
    commit tap resolved the fate but the response was never delivered).

    Within its budgets the procedure is {e exact}: a history is accepted
    by the windowed pass iff the full checker accepts it.  Quiescent
    cuts are sound cut points because an operation that returned before
    the cut must linearize before anything invoked after it, and
    undecided (+∞) operations never constrain a cut — they ride along in
    the carried configurations until some window consumes them (or the
    history ends).  {!test} validates this equivalence against {!Lin} on
    randomly generated small histories.

    Unknown initial state (⊥): a key the sampling recorder ({!Sample})
    was forced to re-anchor mid-stream starts from the ⊥ configuration.
    The first operation whose response {e pins} the state
    ({!Spec.t.pin}) re-anchors the model; operations before that which
    cannot pin are not linearizable from ⊥, so ⊥ checking is
    best-effort: it never accepts a non-linearizable window, but can
    reject contrived schedules whose only linearizations lead with an
    unpinnable op.  With known init the pass stays exact. *)

type op = {
  o_req : string;
  o_resp : string option;  (** [None]: any response acceptable *)
  o_must : bool;  (** must appear in the linearization *)
  o_inv : float;
  o_ret : float;  (** [infinity] when the return never happened *)
}

type cset
(** A set of carried configurations (abstract, persistent). *)

type error =
  | Nonlin of string  (** witness: no linearization of some window *)
  | Limit of string  (** a budget (steps / configs / pending) tripped *)

val make : ?bot:bool -> Spec.t -> cset
(** The singleton configuration set for one partition: the model's
    initial state, or the ⊥ sentinel when [bot] (state unknown —
    late-tracked key). *)

val advance :
  ?max_steps:int -> ?max_configs:int -> Spec.t -> cset -> op array ->
  (cset, error) result
(** Check one window — operations whose invocations all fall after the
    previous cut, with every finite return inside the window — from each
    carried configuration, and return the deduplicated set of reachable
    configurations at the next cut.  +∞-return ops in the window join
    the carry.  Budgets: [max_steps] (default 2e6) bounds search nodes,
    [max_configs] (default 4096) bounds the carried set, and a fixed cap
    bounds undecided ops per configuration. *)

val close : cset -> (unit, error) result
(** End of history: some carried configuration must have no undecided
    {e must} op left (a commit-resolved op that can never linearize is a
    linearizability violation, exactly as in {!Lin}). *)

val cardinal : cset -> int
(** Configurations currently carried. *)

(** {1 Whole-history convenience}

    Same entry preprocessing as {!Lin.check} (fate handling, ambiguous
    reads dropped, per-key partitions), but each partition is swept
    through quiescent cuts instead of searched whole — the reference
    implementation the sampling recorder's online variant is tested
    against, and itself testable against {!Lin} for equivalence. *)

type result_ = {
  verdict : Lin.verdict;
  checked_ops : int;
  dropped_ambiguous_reads : int;
  skipped_unrecognized : int;
  partitions : int;
  windows : int;  (** total windows advanced across partitions *)
  max_window_ops : int;
  max_configs_carried : int;
}

val check :
  ?max_steps:int -> ?max_configs:int -> Spec.t -> History.entry list ->
  result_

val pp_result : Format.formatter -> result_ -> unit
