(** End-to-end correctness runs: build a stack inside the simulator,
    drive a recorded client workload while a seeded fault schedule plays
    out, then heal, drain, and check the history against its sequential
    spec.  Everything is a pure function of [config.seed]: the same
    config replays byte-for-byte ({!outcome.history_lines}), which is
    what makes {!shrink} possible. *)

type stack = Rex | Smr | Eve | Sharded | Cbase | Early
(** [Cbase] / [Early] are the conflict-aware parallel SMR stacks of
    {!Sched.Server} (DESIGN.md §12). *)

type app = Kv | Counter

val stack_of_string : string -> stack option
val stack_name : stack -> string

(** A log-order stack's constructor, its state type hidden. *)
type log_stack = Log_stack : 'x Rex_core.Log_cluster.mk -> log_stack

val log_stack :
  stack -> Rex_core.Config.t -> conflict:(string -> string list) ->
  Rex_core.App.factory -> log_stack
(** The constructor of [Smr], [Cbase], [Early] or [Eve] (its
    {!Eve.config} is [Eve.default_config] with the given config as its
    base), for {!Rex_core.Log_cluster}.  Raises [Invalid_argument] for
    [Rex] and [Sharded]. *)

val app_of_string : string -> app option
val app_name : app -> string

type config = {
  stack : stack;
  app : app;  (** [Sharded] supports [Kv] only (a counter is one key) *)
  nemesis : Nemesis.profile;
  seed : int;
  clients : int;
  ops_per_client : int;
  dedup_off : bool;
      (** fault injection into the harness itself: retries mint a fresh
          request identity, disabling exactly-once — a canary the checker
          must flag as non-linearizable (counter app) *)
  reads_via_query : bool;
      (** route read-only ops through the read fast path (leases / quorum
          reads) instead of the ordered client path *)
  lease_unsafe : bool;
      (** disable lease fencing on every replica: with a beyond-bound
          {!Nemesis.Stale_leader} fault this is the canary the checker
          must flag as non-linearizable *)
  read_ratio : float option;
      (** Kv only: override the default op mix with [GET] at this
          probability and [SET] otherwise — read-heavy mixes keep
          clients parked on a stale leader whose reads still answer *)
  checkpoint_interval : float option;  (** Rex/Sharded only *)
  horizon : float;  (** fault window; healing and drain follow *)
  max_steps : int;  (** checker search budget *)
}

val default_config :
  ?clients:int -> ?ops_per_client:int -> ?dedup_off:bool ->
  ?reads_via_query:bool -> ?lease_unsafe:bool -> ?read_ratio:float ->
  ?checkpoint_interval:float option -> ?horizon:float -> ?max_steps:int ->
  stack:stack -> app:app -> nemesis:Nemesis.profile -> seed:int -> unit ->
  config

type outcome = {
  config : config;
  schedule : Nemesis.schedule;
  hstats : History.stats;
  result : Lin.result;
  converged : bool;  (** live replicas agree (digests, no divergence) *)
  live_probe_ok : bool;
      (** a post-heal request committed: the group is not wedged *)
  elapsed_virtual : float;
  history_lines : string list;
}

val passed : outcome -> bool
(** Linearizable and converged and live. *)

val describe_outcome : outcome -> string list
(** Failure report: verdict, schedule, stats — for repro artifacts. *)

val run_one : ?schedule:Nemesis.schedule -> config -> outcome
(** [schedule] overrides the seed-generated one (used when replaying a
    shrunk schedule; the workload stays a function of the seed). *)

val shrink : config -> Nemesis.schedule -> outcome -> Nemesis.schedule * outcome
(** Greedy one-at-a-time fault removal, replaying by seed, until no
    single fault can be dropped without the failure disappearing.
    [outcome] is the original failing run; returns the minimal failing
    schedule and its outcome. *)

type sweep_result = {
  runs : int;
  failed : (int * outcome) list;  (** (seed, shrunk failing outcome) *)
}

val sweep :
  ?progress:(int -> outcome -> unit) -> base:config -> seeds:int -> unit ->
  sweep_result
(** Seeds [base.seed .. base.seed + seeds - 1]; every failure is shrunk
    before being reported. *)
