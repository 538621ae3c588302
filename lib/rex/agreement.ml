type callbacks = Paxos.Replica.callbacks = {
  on_committed : int -> string -> unit;
  on_become_leader : unit -> unit;
  on_new_leader : int -> unit;
}

type t = {
  start : unit -> unit;
  propose : string -> bool;
  can_propose : unit -> bool;
  next_instance : unit -> int;
  is_leader : unit -> bool;
  leader_hint : unit -> int option;
  committed_upto : unit -> int;
  committed : int -> string option;
  truncate_below : int -> unit;
  fast_forward : int -> unit;
  lease_valid : unit -> bool;
  read_index : unit -> int;
  peers : unit -> int list;
  reconfig : int list -> live:(unit -> bool) -> release:(unit -> unit) -> bool;
}

let of_paxos net (cfg : Config.t) ~node store cbs =
  (* A membership change waits for the log to go idle, and a loaded
     leader always has an instance open: [held] keeps the proposer off
     from the change's start until it is delivered, or until a new term
     begins. *)
  let held = ref false in
  let rep =
    Paxos.Replica.create net
      {
        Paxos.Replica.me = node;
        peers = cfg.replicas;
        heartbeat_period = cfg.heartbeat_period;
        max_inflight = cfg.pipeline_depth;
        sync_latency = cfg.paxos_sync_latency;
        lease_duration = cfg.lease_duration;
        lease_drift_bound = cfg.lease_drift_bound;
      }
      store
      {
        cbs with
        on_become_leader =
          (fun () ->
            held := false;
            cbs.on_become_leader ());
      }
  in
  {
    start = (fun () -> Paxos.Replica.start rep);
    propose = (fun v -> Paxos.Replica.propose rep v);
    can_propose = (fun () -> (not !held) && Paxos.Replica.can_propose rep);
    next_instance = (fun () -> Paxos.Replica.next_instance rep);
    is_leader = (fun () -> Paxos.Replica.is_leader rep);
    leader_hint = (fun () -> Paxos.Replica.leader_hint rep);
    committed_upto = (fun () -> Paxos.Replica.committed_upto rep);
    committed = (fun i -> Paxos.Replica.committed_value rep i);
    truncate_below = (fun i -> Paxos.Store.truncate_below store i);
    fast_forward = (fun i -> Paxos.Store.fast_forward store i);
    lease_valid = (fun () -> Paxos.Replica.holds_lease rep);
    read_index = (fun () -> Paxos.Replica.read_index rep);
    peers = (fun () -> Paxos.Replica.peers rep);
    reconfig =
      (fun peers ~live ~release ->
        (not !held)
        && (not (Paxos.Replica.reconfig_pending rep))
        && begin
             held := true;
             Paxos.Replica.reconfig_when_idle rep peers ~live
               ~release:(fun () ->
                 held := false;
                 release ());
             true
           end);
  }
