type t = {
  replicas : int list;
  workers : int;
  checkpoint_interval : float option;
  flow_window : int;
  flow_staleness : float;
  heartbeat_period : float;
  reduce_edges : bool;
  partial_order : bool;
  check_versions : bool;
  record_cost : float;
  ckpt_byte_cost : float;
  pipeline_depth : int;
  paxos_sync_latency : float;
  lease_duration : float;
  lease_drift_bound : float;
  lease_unsafe : bool;
  admit_global : int;
  admit_per_client : int;
  admit_queue_soft : int;
  admit_queue_hard : int;
}

let admission t ~queue_depth =
  if
    t.admit_global = 0 && t.admit_per_client = 0 && t.admit_queue_soft = 0
    && t.admit_queue_hard = 0
  then None
  else
    Some
      (Frontend.admission ~max_global:t.admit_global
         ~max_per_client:t.admit_per_client ~queue_soft:t.admit_queue_soft
         ~queue_hard:t.admit_queue_hard ~queue_depth ())

let default_pipeline_depth = 4

let make ?(workers = 8) ?(checkpoint_interval = None)
    ?(flow_window = 20_000) ?(flow_staleness = 0.2) ?(heartbeat_period = 5e-3)
    ?(reduce_edges = true) ?(partial_order = true)
    ?(check_versions = true) ?(record_cost = 5e-8)
    ?(ckpt_byte_cost = 4e-8) ?(pipeline_depth = default_pipeline_depth)
    ?(paxos_sync_latency = 0.)
    ?(lease_unsafe = false) ?(admit_global = 0) ?(admit_per_client = 0)
    ?(admit_queue_soft = 0) ?(admit_queue_hard = 0) ~replicas () =
  if replicas = [] then invalid_arg "Config.make: empty replica set";
  if workers <= 0 then invalid_arg "Config.make: workers";
  if pipeline_depth <= 0 then invalid_arg "Config.make: pipeline_depth";
  if admit_global < 0 || admit_per_client < 0 || admit_queue_soft < 0
     || admit_queue_hard < 0
  then invalid_arg "Config.make: negative admission bound";
  {
    replicas;
    workers;
    checkpoint_interval;
    flow_window;
    flow_staleness;
    heartbeat_period;
    reduce_edges;
    partial_order;
    check_versions;
    record_cost;
    ckpt_byte_cost;
    pipeline_depth;
    paxos_sync_latency;
    (* a lease must outlive a couple of lost heartbeats; a follower
       campaigns one heartbeat after its grant lapses, so the lease also
       bounds how long a leader crash goes undetected *)
    lease_duration = 4. *. heartbeat_period;
    lease_drift_bound = 0.2;
    lease_unsafe;
    admit_global;
    admit_per_client;
    admit_queue_soft;
    admit_queue_hard;
  }
