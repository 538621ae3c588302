(** Multi-instance Paxos replica with leader election (paper §3.1).

    The interface mirrors Rex's extended Paxos API: [propose] submits a
    value for the next instance, [on_committed] fires — in instance order,
    exactly once per instance per replica lifetime — when a value commits,
    and leadership changes surface through [on_become_leader] /
    [on_new_leader].

    Two Rex design decisions are enforced here: at most one consensus
    instance is active at a time (a proposal is admitted only when no
    instance is in flight, so the prefix condition is easy to maintain
    upstream), and the leader is the only proposer (co-located with the
    Rex primary).

    Safety notes: acceptor state lives in a {!Store.t} the caller keeps
    across crash/restart cycles, modelling stable storage; a new leader
    first catches up on the committed prefix and re-proposes any value
    that might have been chosen before announcing leadership. *)

type callbacks = {
  on_committed : int -> string -> unit;
      (** invoked in a fiber on this node, in instance order *)
  on_become_leader : unit -> unit;
  on_new_leader : int -> unit;
      (** a higher ballot owned by the given replica was observed *)
}

type config = {
  me : int;  (** this replica's node id *)
  peers : int list;  (** all replica node ids, including [me] *)
  heartbeat_period : float;
      (** also the election watchdog's poll period: a follower that has
          followed no leader for [lease_duration] plus one heartbeat
          (five heartbeats with leases off) runs a pre-vote, then
          campaigns *)
  max_inflight : int;
      (** concurrent open instances: 1 = Rex's single-active-instance
          design; >1 pipelines, with earlier open proposals piggybacked
          on each Accept (§3.1) *)
  sync_latency : float;
      (** modeled stable-storage write (fsync) before answering a Prepare
          or Accept; 0 disables *)
  lease_duration : float;
      (** leader-lease length, counted on each follower's own clock from
          heartbeat receipt; [<= 0.] disables leases entirely *)
  lease_drift_bound : float;
      (** assumed clock-rate error bound [d]: every clock runs within
          [[1-d, 1+d]] × true time.  The lease is safe iff real clocks
          respect this (the skew nemesis in lib/check probes both
          sides). *)
}

val default_config :
  ?max_inflight:int -> me:int -> peers:int list -> unit -> config
(** 5 ms heartbeats, [max_inflight] 1, no modeled fsync, 20 ms leases
    under a 0.2 drift bound: leader loss is detected after 25 ms. *)

type t

val create : Sim.Net.t -> config -> Store.t -> callbacks -> t
(** Registers the network handler.  Call {!start} to spawn the election
    and heartbeat fibers. *)

val start : t -> unit

val propose : t -> string -> bool
(** Propose a value for the next free instance.  Returns [false] if this
    replica is not the leader, [max_inflight] instances are open, or a
    reconfiguration is in flight. *)

val propose_reconfig : t -> int list -> bool
(** Propose a new membership through the replicated log.  The entry
    commits under the {e old} config's majority and takes effect on each
    replica when delivered, so old-config quorums are retired only after
    the new config commits and the change survives leader failure like
    any other log entry.  Constraints enforced here: the leader only, no
    app entry in flight (barrier), and the new list must differ from the
    current membership by exactly one replica (add XOR remove — adjacent
    configs then always share a majority; replace = add, then remove).
    Returns [false] when any constraint fails.  Application callbacks
    never see config entries ({!committed_value} yields [None] for
    them). *)

val reconfig_when_idle :
  t -> int list -> live:(unit -> bool) -> release:(unit -> unit) -> unit
(** {!propose_reconfig} from a fiber of its own, once no instance is
    open; then, once the entry is delivered (or was refused), [release ()].
    The fiber polls every millisecond and stops, without releasing, as
    soon as [live ()] is false.  A leader that proposes on events always
    has an instance open, so it holds its proposer from the call until
    [release] (or until it is deposed). *)

val reconfig_pending : t -> bool
(** A config entry proposed here has not been delivered yet. *)

val peers : t -> int list
(** Current membership: the constructed [config.peers] (or the store's
    persisted group after a restart) until a delivered config entry
    replaces it. *)

val is_member : t -> bool
(** Whether this replica is part of {!peers}.  A replica configured out
    of the group stops campaigning but keeps serving Learn requests. *)

val can_propose : t -> bool
(** Whether this replica leads, no config entry is in flight and fewer
    than [max_inflight] instances are open.  A leader refused only
    because the window is full counts one [paxos/window_full]. *)

val is_leader : t -> bool

val holds_lease : t -> bool
(** Leader-side lease validity: [me] plus the peers whose newest grant is
    still live — each counted for [(1-d)/(1+d) × lease_duration] from the
    granted heartbeat's {e send} time on the leader's clock — form a
    majority.  While true, every lease member refuses foreign Prepares,
    so no other leader can commit: reading local committed state is
    linearizable.  Always false when leases are disabled. *)

val read_index : t -> int
(** This replica's contribution to a quorum read: the highest instance
    that could already be chosen from its point of view
    (max of the committed prefix, out-of-order commits, and accepted
    proposals).  A majority of these, maxed, upper-bounds every write
    acknowledged before the probe. *)

val leader_hint : t -> int option
(** The leader this replica follows; [None] once it has heard from no
    leader for the detection delay (see [heartbeat_period]). *)

val current_ballot : t -> Ballot.t
val committed_upto : t -> int
val next_instance : t -> int
val committed_value : t -> int -> string option
val store : t -> Store.t

val replay_committed : Store.t -> (int -> string -> unit) -> unit
(** Feed every committed {e application} entry to [f] in instance order
    (config entries are skipped, gaps subsumed by a checkpoint are
    silent).  A replica created over an existing store never re-delivers
    the committed prefix through [on_committed]; stacks that rebuild
    execution state across a same-store restart — the rolling-upgrade
    path — call this between [create] and [start]. *)
