(** The open-loop session fleet runner.

    One dispatcher fiber paces a {!Gen} generator against the backend
    clock; arrivals pass an engine-side admission gate (per-session
    inflight cap, bounded admitted queue) into a FIFO drained by a bounded
    pool of caller fibers that perform the blocking request and record the
    outcome.  Latency is measured from the request's {e scheduled} arrival
    time, so dispatcher or queue lag under overload shows up in the tail
    instead of being coordinated-omission'd away.

    Runs unchanged on either [Par.Backend]: the generator is pure, the
    dispatcher/callers use only backend-portable primitives, and all
    shared state is under one backend mutex. *)

type outcome =
  | Done  (** committed reply *)
  | Rejected  (** shed by frontend admission control ([Busy]) *)
  | Timeout
  | Error

type target = session:int -> seq:int -> key:int -> read:bool -> outcome
(** The blocking call one arrival performs, supplied by the bench (a
    frontend client closure) or a test stub.  [session]/[seq] identify the
    logical request for exactly-once purposes; [key]/[read] pick the
    operation. *)

val null_target : target
(** Completes instantly with [Done]; for generator/determinism tests. *)

type config = private {
  sessions : int;
  profile : Arrivals.profile;
  duration : float;
  keys : int;
  theta : float;
  read_ratio : float;
  session_inflight : int;  (** engine-side per-session cap, 1..255 *)
  queue_cap : int;  (** admitted-FIFO bound; overflow is shed *)
  callers : int;  (** caller-fiber pool size *)
  slo : float;  (** latency SLO threshold (s) for burn counters *)
  seed : int;
  trace_cap : int;  (** how many arrivals to capture in [stats.trace] *)
}

val config :
  ?keys:int ->
  ?theta:float ->
  ?read_ratio:float ->
  ?session_inflight:int ->
  ?queue_cap:int ->
  ?callers:int ->
  ?slo:float ->
  ?trace_cap:int ->
  sessions:int ->
  profile:Arrivals.profile ->
  duration:float ->
  seed:int ->
  unit ->
  config
(** Defaults: keys 1024, theta 0.99, read_ratio 0.5, session_inflight 1,
    queue_cap 4096, callers 128, slo 50 ms, trace_cap 0.
    @raise Invalid_argument on out-of-range values. *)

type stats = {
  generated : int;
  admitted : int;
  ok : int;
  shed_session : int;  (** engine-side per-session inflight cap *)
  shed_queue : int;  (** engine-side queue bound *)
  busy : int;  (** frontend admission rejections *)
  timeouts : int;
  errors : int;
  slo_ok : int;
  slo_breach : int;  (** completions over SLO, plus timeouts *)
  max_queue : int;
  mean : float;
  p50 : float;
  p99 : float;
  p999 : float;
  max_lat : float;
  trace : (float * int * int) array;
      (** first [trace_cap] arrivals as (rel time, session, key) — the
          cross-backend determinism witness *)
}
(** The counts from [generated] to [slo_breach] are how far the
    backend's [load/*] counters moved during the run ([timeouts] is
    [load/timeout], [errors] is [load/error]). *)

val shed : stats -> int
(** Everything that never reached the target:
    [shed_session + shed_queue + busy]. *)

val run :
  Par.Backend.t ->
  node:int ->
  ?timeline:Obs.Timeline.t ->
  target:target ->
  config ->
  stats
(** Must be called from inside a fiber; blocks until the horizon is
    exhausted and every admitted request completed.  Also feeds the
    backend's obs registry (subsystem ["load"]: generated/admitted/ok/
    shed_*/busy/timeout/error/slo_ok/slo_breach counters, latency
    histogram, queue_depth and inflight gauges) and, when given, a
    {!Obs.Timeline} (completions with latency; sheds via
    [Timeline.shed]). *)
