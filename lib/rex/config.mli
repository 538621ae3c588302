(** Replica-group configuration. *)

type t = {
  replicas : int list;  (** node ids of the replica group *)
  workers : int;  (** worker thread slots per replica *)
  checkpoint_interval : float option;  (** [None]: no periodic checkpoints *)
  flow_window : int;
      (** max trace events the primary may run ahead of the slowest
          live secondary's replay *)
  flow_staleness : float;
      (** a secondary silent for this long no longer gates the primary *)
  heartbeat_period : float;
  reduce_edges : bool;
  partial_order : bool;
  check_versions : bool;
  record_cost : float;
      (** modeled CPU cost of logging one event on the primary *)
  ckpt_byte_cost : float;
      (** modeled cost (seconds per byte) of serializing and writing a
          checkpoint on a secondary — the source of Fig. 10's dips *)
  pipeline_depth : int;
      (** concurrent consensus instances, {!default_pipeline_depth} (4)
          unless set: a request that arrives while fewer than four
          instances are open is proposed at once in another instead of
          waiting a Paxos round.  1 is the paper's single-active-instance
          design (§3.1); 2 was the default before 4.
          Every stack's Paxos reads it ({!Agreement.of_paxos}); Eve's
          batches await execution, so its leader keeps one of its own
          instances open at most *)
  paxos_sync_latency : float;
      (** modeled acceptor fsync before promises/accepts (0 disables);
          every stack's Paxos reads it *)
  lease_duration : float;
      (** leader-lease length on each follower's clock:
          4 × [heartbeat_period]; [<= 0.] disables the lease read path.
          A follower that hears from no leader for this plus one
          heartbeat detects leader loss (see [Paxos.Replica.config]) *)
  lease_drift_bound : float;
      (** assumed clock-rate error bound backing the lease safety
          argument, 0.2 (see [Paxos.Replica.config]) *)
  lease_unsafe : bool;
      (** {b testing only}: serve local reads whenever this replica
          believes it is leader, without checking the lease — the
          fencing-disabled canary for lib/check *)
  admit_global : int;
      (** admission control: max node-wide inflight logical requests
          before new work is answered [Busy]; 0 disables (the default —
          all admission knobs off means the frontend hot path is exactly
          the pre-admission one) *)
  admit_per_client : int;  (** max inflight per client session; 0 = off *)
  admit_queue_soft : int;
      (** run-queue depth that triggers intake backpressure; 0 = off *)
  admit_queue_hard : int;
      (** run-queue depth that rejects new work with [Busy]; 0 = off *)
}

val admission :
  t -> queue_depth:(unit -> int) -> Frontend.admission option
(** The {!Frontend.admission} record for these knobs over the stack's own
    [queue_depth] probe; [None] when every knob is 0. *)

val default_pipeline_depth : int
(** 4: {!make}'s [pipeline_depth] when none is given, and the checker's
    ([Check.Runner.default_config], [bench check --pipeline-depth]). *)

val make :
  ?workers:int ->
  ?checkpoint_interval:float option ->
  ?flow_window:int ->
  ?flow_staleness:float ->
  ?heartbeat_period:float ->
  ?reduce_edges:bool ->
  ?partial_order:bool ->
  ?check_versions:bool ->
  ?record_cost:float ->
  ?ckpt_byte_cost:float ->
  ?pipeline_depth:int ->
  ?paxos_sync_latency:float ->
  ?lease_unsafe:bool ->
  ?admit_global:int ->
  ?admit_per_client:int ->
  ?admit_queue_soft:int ->
  ?admit_queue_hard:int ->
  replicas:int list ->
  unit ->
  t
