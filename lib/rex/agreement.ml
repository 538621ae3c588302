type callbacks = {
  on_committed : int -> string -> unit;
  on_become_leader : unit -> unit;
  on_new_leader : int -> unit;
}

type t = {
  start : unit -> unit;
  propose : string -> bool;
  can_propose : unit -> bool;
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

let of_paxos rep =
  {
    start = (fun () -> Paxos.Replica.start rep);
    propose = (fun v -> Paxos.Replica.propose rep v);
    can_propose = (fun () -> Paxos.Replica.can_propose rep);
    is_leader = (fun () -> Paxos.Replica.is_leader rep);
    leader_hint = (fun () -> Paxos.Replica.leader_hint rep);
    committed_upto = (fun () -> Paxos.Replica.committed_upto rep);
    committed = (fun i -> Paxos.Replica.committed_value rep i);
    truncate_below =
      (fun i -> Paxos.Store.truncate_below (Paxos.Replica.store rep) i);
    fast_forward =
      (fun i -> Paxos.Store.fast_forward (Paxos.Replica.store rep) i);
    lease_valid = (fun () -> Paxos.Replica.holds_lease rep);
    read_index = (fun () -> Paxos.Replica.read_index rep);
    peers = (fun () -> Paxos.Replica.peers rep);
    reconfig =
      (fun peers ~live ~release ->
        (not (Paxos.Replica.reconfig_pending rep))
        && begin
             Paxos.Replica.reconfig_when_idle rep peers ~live ~release;
             true
           end);
  }
