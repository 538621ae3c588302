(** Chain replication as an alternative agree stage (paper §7: "the Rex
    approach can also be applied to other replication protocols, such as
    primary/backup replication and its variations (e.g., chain
    replication)").

    Replicas form a chain ordered by a {!view_manager}: the head is the
    Rex primary; trace deltas flow head → … → tail; cumulative
    acknowledgements flow back, committing entries at each hop.  Compared
    to Paxos, the head sends each delta once (not n−1 times) and commits
    take one full chain traversal.

    Failure model: fail-stop replicas detected by view-manager heartbeat
    timeouts; links are reliable FIFO (the simulator's default).  The view
    manager itself is assumed reliable — in the original protocol it is a
    Paxos-replicated master; here it runs on a dedicated node the
    benchmarks never crash.

    Repair is uniform: on every view change each member re-sends its
    accepted-but-uncommitted suffix to its (possibly new) successor, and a
    joining replica pulls the missing prefix from its predecessor before
    acknowledging. *)

val view_manager : Sim.Net.t -> node:int -> replicas:int list -> unit -> unit
(** Start the view manager service on [node]; it drops a member silent for
    50 ms. *)

val make :
  ?window:int ->
  ?heartbeat_period:float ->
  Sim.Net.t ->
  node:int ->
  vm_node:int ->
  store:Paxos.Store.t ->
  Agreement.callbacks ->
  Agreement.t
(** An agree stage for {!Server.create}'s [make_agreement].  [window]
    bounds the head's unacknowledged pipeline (default 8).  The
    {!Paxos.Store.t} provides the durable log, as in the Paxos stage. *)
