(** The agree-stage abstraction.

    Rex's execute-agree-follow does not care {e how} replicas agree on the
    sequence of trace deltas, only that they do — the paper notes the
    approach "can also be applied to other replication protocols, such as
    primary/backup replication and its variations (e.g., chain
    replication)" (§7).  {!Server} and {!Log_server} are written against
    this interface; {!of_paxos} builds the default multi-instance Paxos,
    and {!Chain} provides a chain-replicated log. *)

type callbacks = Paxos.Replica.callbacks = {
  on_committed : int -> string -> unit;
      (** fired in sequence order, exactly once per slot per process
          lifetime *)
  on_become_leader : unit -> unit;
      (** this replica may now propose (it is the Paxos leader / chain
          head) *)
  on_new_leader : int -> unit;  (** another replica took over *)
}

type t = {
  start : unit -> unit;
  propose : string -> bool;
      (** submit the next value; false when not leader or window full *)
  can_propose : unit -> bool;
      (** [propose] would take a value now: this replica leads, its
          window has room and no membership change holds it *)
  next_instance : unit -> int;
      (** the sequence number the next [propose] takes *)
  is_leader : unit -> bool;
  leader_hint : unit -> int option;
  committed_upto : unit -> int;
  committed : int -> string option;  (** read back for recovery *)
  truncate_below : int -> unit;  (** GC below a checkpointed sequence *)
  fast_forward : int -> unit;
      (** a loaded checkpoint subsumes the prefix up to this sequence *)
  lease_valid : unit -> bool;
      (** leader-side: local reads are fenced by a live quorum lease (see
          [Paxos.Replica.holds_lease]); protocols without leases return
          [false] and reads take the quorum or ordered path *)
  read_index : unit -> int;
      (** this replica's highest possibly-chosen sequence number, for
          quorum reads (see [Paxos.Replica.read_index]) *)
  peers : unit -> int list;
      (** current replica-group membership — dynamic once
          reconfiguration entries commit (see
          [Paxos.Replica.propose_reconfig]) *)
  reconfig : int list -> live:(unit -> bool) -> release:(unit -> unit) -> bool;
      (** propose a single-replica membership change through the log,
          once no value is open ({!Paxos.Replica.reconfig_when_idle}),
          and run [release] once it is delivered; [false] while another
          change is under way and in protocols without reconfiguration.
          The change holds the proposer: [can_propose] is false from the
          call until [release] runs, or until the next term begins if
          [live] turns false first *)
}

val of_paxos :
  Sim.Net.t -> Config.t -> node:int -> Paxos.Store.t -> callbacks -> t
(** Multi-instance Paxos as the agree stage of replica [node], over
    [cfg]'s replicas, heartbeat, [pipeline_depth] (open instances, 4
    by default),
    [paxos_sync_latency] and lease settings.  Every stack's Paxos is
    built here.  A new term ([on_become_leader]) starts with no hold. *)
