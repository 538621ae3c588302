open Sim

let port = Net.port "paxos"
let learn_batch = 64

type callbacks = {
  on_committed : int -> string -> unit;
  on_become_leader : unit -> unit;
  on_new_leader : int -> unit;
}

type config = {
  me : int;
  peers : int list;
  heartbeat_period : float;
  max_inflight : int;
      (* how many consensus instances may be open concurrently; 1 is
         Rex's single-active-instance design, >1 enables the §3.1
         piggyback pipelining *)
  sync_latency : float;
      (* modeled stable-storage write before an acceptor answers a
         Prepare or Accept (real Paxos must fsync its promises) *)
  lease_duration : float;
      (* how long a follower's lease grant lasts on the follower's own
         clock, counted from heartbeat receipt; <= 0 disables leases *)
  lease_drift_bound : float;
      (* assumed bound on clock rate error: every clock's rate is within
         [1-d, 1+d] of true time.  The leader shrinks its view of each
         grant by (1-d)/(1+d) so a fast follower clock can never expire
         a grant before the leader stops trusting it *)
}

let default_config ?(max_inflight = 1) ~me ~peers () =
  {
    me;
    peers;
    heartbeat_period = 5e-3;
    max_inflight;
    sync_latency = 0.;
    lease_duration = 20e-3;
    lease_drift_bound = 0.2;
  }

type role = Follower | Candidate | Leader

(* Reconfiguration rides the replicated log as ordinary values carrying
   this sentinel prefix.  Config entries are invisible to the
   application ([deliver] applies them internally; {!committed_value}
   hides them), and each entry may change membership by at most one
   replica, so consecutive configs always share a majority — the quorum
   intersection argument for one-at-a-time membership change. *)
let cfg_sentinel = "\xff\x00rexcfg\x01"

let encode_cfg peers =
  cfg_sentinel ^ String.concat "," (List.map string_of_int peers)

let is_cfg_value v =
  let n = String.length cfg_sentinel in
  String.length v >= n && String.sub v 0 n = cfg_sentinel

let decode_cfg v =
  let body =
    String.sub v
      (String.length cfg_sentinel)
      (String.length v - String.length cfg_sentinel)
  in
  String.split_on_char ',' body |> List.filter_map int_of_string_opt

(* A replica created over an existing store starts with
   [delivered = committed_upto]: the committed prefix is never
   re-delivered through [on_committed].  Stacks that rebuild execution
   state across a restart (rolling upgrades) replay it explicitly. *)
let replay_committed st f =
  for i = 1 to Store.committed_upto st do
    match Store.committed st i with
    | Some v when is_cfg_value v -> ()
    | Some v -> f i v
    | None -> () (* subsumed by a checkpoint fast-forward *)
  done

type inflight = {
  fi_instance : int;
  fi_ballot : Ballot.t;
  fi_value : string;
  fi_started : float;  (* proposal time, for the commit-latency histogram *)
  mutable fi_acks : int list;
  fi_recovery : bool;  (* re-proposal during leader takeover *)
}

type t = {
  net : Net.t;
  cfg : config;
  st : Store.t;
  cbs : callbacks;
  rng : Rng.t;
  mutable peers : int list;
      (* current membership: [cfg.peers] (or the store's persisted group)
         until a committed config entry replaces it *)
  mutable reconfig_at : int;
      (* instance of our in-flight config proposal; proposals are barred
         while it is above the delivered prefix (0 = none) *)
  mutable role : role;
  mutable ballot : Ballot.t;  (* highest ballot this replica has seen *)
  mutable announced : Ballot.t;  (* last foreign ballot reported via on_new_leader *)
  mutable leader : int option;
  mutable last_contact : float;
      (* local-clock time of the last Prepare, Accept or Heartbeat that
         this replica followed *)
  mutable pre_votes : (Ballot.t * int list) option;
      (* the open pre-vote round: the ballot it would campaign with and
         the replicas that said yes *)
  mutable campaign_promises : (int * (int * Ballot.t * string) list * int) list;
      (* (from, accepted entries, committed_upto) for the current campaign *)
  mutable campaign_open : bool;
  mutable lead_after_catchup : int option;
      (* becoming leader is deferred until our committed prefix reaches
         this instance (learned from the promise majority) *)
  mutable recovery_queue : (int * string) list;
      (* uncommitted proposals to re-drive before leading *)
  inflight : (int, inflight) Hashtbl.t;
  mutable held : (int * Ballot.t) list;
      (* commit notices not sent yet, newest first (see "Commit notices") *)
  mutable delivered : int;
  (* lease state, follower side: one outstanding grant at a time *)
  mutable grant_ballot : Ballot.t;  (* whose heartbeats we granted to *)
  mutable grant_until : float;  (* local-clock expiry of that grant *)
  (* lease state, leader side *)
  mutable hb_seq : int;
  hb_sent : (int, float) Hashtbl.t;  (* hb_seq -> local send time *)
  grants : (int, float) Hashtbl.t;
      (* peer -> local send time of the newest heartbeat it granted *)
  mutable lease_was_valid : bool;  (* edge detector for the expiry counter *)
  obs : Obs.t;
  c_proposals : Obs.Metric.counter;
  c_commits : Obs.Metric.counter;
  c_acks : Obs.Metric.counter;
  c_campaigns : Obs.Metric.counter;
  c_lease_grants : Obs.Metric.counter;
  c_lease_renewals : Obs.Metric.counter;
  c_lease_expiries : Obs.Metric.counter;
  c_window_full : Obs.Metric.counter;
  h_commit : Obs.Histogram.t;
}

let majority t = (List.length t.peers / 2) + 1
let peers t = t.peers
let is_member t = List.mem t.cfg.me t.peers
let reconfig_pending t = t.reconfig_at > t.delivered
let is_leader t = t.role = Leader
let current_ballot t = t.ballot
let committed_upto t = Store.committed_upto t.st

let next_instance t =
  (* Never reuse an instance: account for open proposals AND commits that
     landed above the contiguous prefix (out-of-order quorums). *)
  let m =
    Hashtbl.fold (fun i _ acc -> max i acc) t.inflight
      (max (Store.committed_upto t.st) (Store.max_committed t.st))
  in
  m + 1

let in_flight t = Hashtbl.length t.inflight > 0
let can_propose t =
  t.role = Leader
  (* Proposal barrier: while a config entry is in flight, no app values
     may pipeline behind it — the entry's commit changes the quorum the
     followers would be acked against. *)
  && (not (reconfig_pending t))
  &&
  (* A leader refused only because [max_inflight] instances are open
     counts in [paxos/window_full]: its callers ask only with a value
     to propose. *)
  let room = Hashtbl.length t.inflight < t.cfg.max_inflight in
  if not room then Obs.Metric.incr t.c_window_full;
  room
let store t = t.st
let now t = Engine.clock (Net.engine t.net)

(* Lease timing runs on the node's own (possibly skewed) clock: a lease
   may only rely on what real clocks guarantee — bounded drift — so it
   must never read true virtual time. *)
let local_now t = Engine.local_clock (Net.engine t.net) t.cfg.me
let lease_on t = t.cfg.lease_duration > 0.

(* Follower side: an unexpired promise to refuse foreign Prepares. *)
let grant_active t =
  lease_on t
  && Ballot.compare t.grant_ballot Ballot.zero > 0
  && local_now t < t.grant_until

(* Leader loss, detected on the follower's own clock: its grant has
   lapsed and one more heartbeat has been missed.  With leases off the
   follower waits as long as the default grant of four heartbeats. *)
let detection_delay t =
  let hb = t.cfg.heartbeat_period in
  (if lease_on t then t.cfg.lease_duration else 4. *. hb) +. hb

(* We followed a Prepare, Accept or Heartbeat: the leader (or would-be
   leader) is alive, and any pre-vote of ours is moot. *)
let followed t =
  t.last_contact <- local_now t;
  t.pre_votes <- None

let leader_silent t = local_now t -. t.last_contact > detection_delay t

(* A follower that has stopped hearing from its leader names no one, so
   clients try another replica instead of the dead node. *)
let leader_hint t =
  if t.role <> Leader && leader_silent t then None else t.leader

(* The leader counts a grant for (1-d)/(1+d) x duration from the
   heartbeat's *send* time on its own clock.  Send <= receive, and for
   clock rates within the drift bound the shrunk window always ends (in
   true time) no later than the follower's own expiry — see DESIGN §11. *)
let lease_margin t =
  (1. -. t.cfg.lease_drift_bound) /. (1. +. t.cfg.lease_drift_bound)

let reset_leader_lease t =
  Hashtbl.reset t.hb_sent;
  Hashtbl.reset t.grants;
  t.lease_was_valid <- false

let holds_lease t =
  let ok =
    lease_on t && t.role = Leader
    &&
    let ln = local_now t in
    let window = t.cfg.lease_duration *. lease_margin t in
    let live =
      List.fold_left
        (fun acc p ->
          if p = t.cfg.me then acc + 1
          else
            match Hashtbl.find_opt t.grants p with
            | Some sent when sent +. window > ln -> acc + 1
            | Some _ | None -> acc)
        0 t.peers
    in
    live >= majority t
  in
  if t.lease_was_valid && not ok then Obs.Metric.incr t.c_lease_expiries;
  t.lease_was_valid <- ok;
  ok

(* The newest instance that could already be chosen: a committed write
   was accepted by a majority, so any probe majority intersects it at a
   node whose [read_index] covers the write (accepted if not yet
   committed there; [committed_upto] survives log truncation). *)
let read_index t =
  List.fold_left
    (fun m (i, _, _) -> max m i)
    (max (Store.committed_upto t.st) (Store.max_committed t.st))
    (Store.accepted_above t.st (Store.committed_upto t.st))

let send_payload t dst payload =
  if dst = t.cfg.me then () else Net.send t.net ~src:t.cfg.me ~dst ~port payload

let send t dst msg = send_payload t dst (Msg.encode msg)

(* One encode for every peer. *)
let broadcast t msg =
  let payload = Msg.encode msg in
  List.iter (fun dst -> send_payload t dst payload) t.peers

(* --- Commit notices ---

   A leader that closes an instance usually opens the next one in the
   same handler run: the owner's [on_committed] proposes again.  Each
   link is FIFO, so a Commit sent just before that Accept would hold the
   Accept back to its own arrival.  The Commit is therefore held until
   the callbacks return; an Accept sent meanwhile carries it, and only a
   commit that opened nothing is sent on its own.  A membership change
   sends what is held first, so the notices always go to the peers they
   are owed to (DESIGN.md §18). *)

let take_commits t =
  let held = t.held in
  t.held <- [];
  List.rev held

let flush_commits t =
  List.iter
    (fun (instance, ballot) -> broadcast t (Msg.Commit { instance; ballot }))
    (take_commits t)

(* A committed config entry takes effect when it is delivered — i.e. the
   old config's quorums are retired only after the new config commits.
   A replica configured out of the group demotes itself and stops
   campaigning (it keeps answering Learn so stragglers can catch up). *)
let apply_config t new_peers =
  flush_commits t;
  t.peers <- new_peers;
  Store.set_group t.st new_peers;
  if not (List.mem t.cfg.me new_peers) && t.role <> Follower then begin
    t.role <- Follower;
    t.leader <- None;
    Hashtbl.reset t.inflight;
    t.recovery_queue <- [];
    t.campaign_open <- false;
    t.lead_after_catchup <- None;
    reset_leader_lease t
  end

let deliver t =
  while t.delivered < Store.committed_upto t.st do
    let i = t.delivered + 1 in
    t.delivered <- i;
    match Store.committed t.st i with
    | Some v when is_cfg_value v -> apply_config t (decode_cfg v)
    | Some v -> t.cbs.on_committed i v
    | None -> () (* subsumed by a checkpoint fast-forward *)
  done

(* Observing a higher ballot owned by someone else demotes us and, once
   per ballot, surfaces the new leader upstream. *)
let observe_ballot t (b : Ballot.t) =
  if Ballot.compare b t.ballot > 0 then begin
    t.ballot <- b;
    if b.Ballot.replica <> t.cfg.me then begin
      if t.role <> Follower then begin
        t.role <- Follower;
        Hashtbl.reset t.inflight;
        t.recovery_queue <- [];
        t.campaign_open <- false;
        t.lead_after_catchup <- None;
        reset_leader_lease t
      end;
      t.leader <- Some b.Ballot.replica;
      if Ballot.compare b t.announced > 0 then begin
        t.announced <- b;
        t.cbs.on_new_leader b.Ballot.replica
      end
    end
  end

(* Ballots name their proposer and a leader proposes one value per
   instance, so the value we accepted at [ballot] is the chosen one.
   Without it, the heartbeat's catch-up brings it. *)
let commit_noticed t instance ballot =
  match Store.accepted t.st instance with
  | Some (b, value) when Ballot.compare b ballot = 0 ->
    Store.commit t.st instance value;
    deliver t
  | Some _ | None -> ()

let request_catch_up t from upto =
  if Store.committed_upto t.st < upto then
    send t from (Msg.Learn { from_instance = Store.committed_upto t.st + 1 })

(* --- Leadership --- *)

let rec drive_next_proposal t =
  match t.recovery_queue with
  | [] ->
    if t.role = Candidate then begin
      t.role <- Leader;
      t.leader <- Some t.cfg.me;
      t.cbs.on_become_leader ()
    end
  | (instance, value) :: rest ->
    if instance <= Store.committed_upto t.st then begin
      (* Got committed behind our back (e.g. learned during catch-up). *)
      t.recovery_queue <- rest;
      drive_next_proposal t
    end
    else start_accept t ~instance ~value ~recovery:true

and start_accept t ~instance ~value ~recovery =
  Store.set_accepted t.st instance t.ballot value;
  Obs.Metric.incr t.c_proposals;
  Hashtbl.replace t.inflight instance
    {
      fi_instance = instance;
      fi_ballot = t.ballot;
      fi_value = value;
      fi_started = now t;
      fi_acks = [ t.cfg.me ];
      fi_recovery = recovery;
    };
  (* Piggyback the open instances below this one (§3.1): a follower that
     missed an earlier Accept can still take the whole chain. *)
  let prior =
    Hashtbl.fold
      (fun i fi acc -> if i < instance then (i, fi.fi_value) :: acc else acc)
      t.inflight []
    |> List.sort compare
  in
  let commits = take_commits t in
  broadcast t (Msg.Accept { ballot = t.ballot; instance; value; prior; commits });
  check_quorum t instance

and check_quorum t instance =
  match Hashtbl.find_opt t.inflight instance with
  | Some fi when List.length fi.fi_acks >= majority t ->
    Hashtbl.remove t.inflight instance;
    Obs.Metric.incr t.c_commits;
    let lat = now t -. fi.fi_started in
    Obs.Histogram.observe t.h_commit lat;
    let sp = Obs.spans t.obs in
    if Obs.Span.enabled sp then
      Obs.Span.complete sp ~cat:"paxos" ~pid:t.cfg.me ~name:"commit"
        ~ts:fi.fi_started ~dur:lat ();
    Store.commit t.st fi.fi_instance fi.fi_value;
    (* sent by [flush_commits] below, unless an Accept takes it first *)
    t.held <- (fi.fi_instance, fi.fi_ballot) :: t.held;
    if fi.fi_recovery then begin
      t.recovery_queue <-
        List.filter (fun (i, _) -> i <> fi.fi_instance) t.recovery_queue;
      deliver t;
      (* [deliver] runs the owner's callbacks.  Should one park, this
         replica may have been deposed, or have campaigned again, by the
         time it returns: only the campaign that opened this instance
         may go on to lead. *)
      if Ballot.compare t.ballot fi.fi_ballot = 0 then drive_next_proposal t
    end
    else deliver t;
    flush_commits t
  | Some _ | None -> ()

let campaign t =
  Obs.Metric.incr t.c_campaigns;
  t.role <- Candidate;
  t.leader <- None;
  Hashtbl.reset t.inflight;
  t.recovery_queue <- [];
  reset_leader_lease t;
  let b = Ballot.next t.ballot ~me:t.cfg.me in
  t.ballot <- b;
  Store.set_promised t.st b;
  t.campaign_promises <-
    [
      ( t.cfg.me,
        Store.accepted_above t.st (Store.committed_upto t.st),
        Store.committed_upto t.st );
    ];
  t.campaign_open <- true;
  t.pre_votes <- None;
  broadcast t (Msg.Prepare { ballot = b })

(* Pre-vote (Ongaro's Raft thesis, §9.6): before raising its ballot a
   replica asks whether a majority has also lost the leader.  A replica
   rejoining from a partition is refused, so it never pushes a higher
   ballot onto a healthy leader. *)
let pre_vote t =
  let ballot = Ballot.next t.ballot ~me:t.cfg.me in
  t.pre_votes <- Some (ballot, [ t.cfg.me ]);
  broadcast t (Msg.Pre_vote { ballot })

let tally_promises t =
  if t.campaign_open && List.length t.campaign_promises >= majority t then begin
    t.campaign_open <- false;
    (* Catch up to the most advanced committed prefix we heard of. *)
    let max_upto =
      List.fold_left (fun m (_, _, u) -> max m u) 0 t.campaign_promises
    in
    (* Collect the highest-ballot accepted value per open instance: those
       may have been chosen and must be re-proposed, preserving the prefix
       condition. *)
    let best = Hashtbl.create 4 in
    List.iter
      (fun (_, entries, _) ->
        List.iter
          (fun (i, b, v) ->
            match Hashtbl.find_opt best i with
            | Some (b', _) when Ballot.compare b' b >= 0 -> ()
            | Some _ | None -> Hashtbl.replace best i (b, v))
          entries)
      t.campaign_promises;
    let queue =
      Hashtbl.fold (fun i (_, v) acc -> (i, v) :: acc) best []
      |> List.sort (fun (i, _) (j, _) -> compare i j)
    in
    t.recovery_queue <- queue;
    (* Leading before learning every committed instance would let us
       propose a fresh value at an already-decided instance: defer until
       our committed prefix reaches the majority's. *)
    if Store.committed_upto t.st >= max_upto then begin
      t.campaign_promises <- [];
      drive_next_proposal t
    end
    else begin
      t.lead_after_catchup <- Some max_upto;
      (match
         List.find_opt (fun (_, _, u) -> u = max_upto) t.campaign_promises
       with
      | Some (from, _, _) when from <> t.cfg.me ->
        request_catch_up t from max_upto
      | Some _ | None -> ());
      t.campaign_promises <- []
    end
  end

(* A majority has lost the leader too: campaign.  A lone replica in a
   single-node group gets there on its own vote and elects itself. *)
let tally_pre_votes t =
  match t.pre_votes with
  | Some (_, yes) when List.length yes >= majority t ->
    campaign t;
    tally_promises t
  | Some _ | None -> ()

(* --- Message handling --- *)

let handle t ~src msg =
  match msg with
  | Msg.Prepare { ballot } ->
    (* Lease fencing: every member counted in a live lease quorum must
       refuse foreign candidates, or a new leader could commit writes
       while the old one still serves lease-protected local reads.  A
       follower with an active grant Nacks anyone but the grant holder;
       a leader holding the lease Nacks everyone (its implicit grant to
       itself).  Quorum intersection then blocks any Prepare majority
       until the lease has provably expired. *)
    let fenced =
      (grant_active t
      && ballot.Ballot.replica <> t.grant_ballot.Ballot.replica)
      || (t.role = Leader && ballot.Ballot.replica <> t.cfg.me
         && holds_lease t)
    in
    if (not fenced) && Ballot.compare ballot (Store.promised t.st) > 0
    then begin
      (* Promising a new leader invalidates any stale grant record. *)
      if ballot.Ballot.replica <> t.grant_ballot.Ballot.replica then begin
        t.grant_ballot <- Ballot.zero;
        t.grant_until <- neg_infinity
      end;
      Store.set_promised t.st ballot;
      observe_ballot t ballot;
      followed t;
      if t.cfg.sync_latency > 0. then Engine.sleep t.cfg.sync_latency;
      send t src
        (Msg.Promise
           {
             ballot;
             accepted = Store.accepted_above t.st (Store.committed_upto t.st);
             committed_upto = Store.committed_upto t.st;
           })
    end
    else send t src (Msg.Nack { ballot = Store.promised t.st })
  | Msg.Promise { ballot; accepted; committed_upto } ->
    if
      t.role = Candidate
      && Ballot.compare ballot t.ballot = 0
      && not (List.exists (fun (f, _, _) -> f = src) t.campaign_promises)
    then begin
      t.campaign_promises <-
        (src, accepted, committed_upto) :: t.campaign_promises;
      tally_promises t
    end
  | Msg.Nack { ballot } -> observe_ballot t ballot
  | Msg.Pre_vote { ballot } ->
    (* Yes only if we too have lost the leader.  Answering changes
       nothing here: no promise, and the silence timer keeps running. *)
    let granted = t.role <> Leader && leader_silent t in
    send t src (Msg.Pre_vote_reply { ballot; granted })
  | Msg.Pre_vote_reply { ballot; granted } -> (
    match t.pre_votes with
    | Some (b, yes)
      when granted && Ballot.compare b ballot = 0 && not (List.mem src yes)
      ->
      t.pre_votes <- Some (b, src :: yes);
      tally_pre_votes t
    | Some _ | None -> ())
  | Msg.Accept { ballot; instance; value; prior; commits } ->
    List.iter (fun (i, b) -> commit_noticed t i b) commits;
    if Ballot.compare ballot (Store.promised t.st) >= 0 then begin
      Store.set_promised t.st ballot;
      observe_ballot t ballot;
      followed t;
      (* Take the piggybacked chain first, then the new instance, but
         never leave a hole: each instance needs its predecessor
         committed or accepted. *)
      let contiguous i =
        i <= Store.committed_upto t.st + 1 || Store.accepted t.st (i - 1) <> None
      in
      List.iter
        (fun (i, v) ->
          if
            Store.committed t.st i = None
            && Store.accepted t.st i = None
            && contiguous i
          then begin
            Store.set_accepted t.st i ballot v;
            send t src (Msg.Accepted { ballot; instance = i })
          end)
        (List.sort compare prior);
      if contiguous instance then begin
        Store.set_accepted t.st instance ballot value;
        if t.cfg.sync_latency > 0. then Engine.sleep t.cfg.sync_latency;
        send t src (Msg.Accepted { ballot; instance })
      end
    end
    else send t src (Msg.Nack { ballot = Store.promised t.st })
  | Msg.Accepted { ballot; instance } -> (
    match Hashtbl.find_opt t.inflight instance with
    | Some fi
      when Ballot.compare fi.fi_ballot ballot = 0
           && not (List.mem src fi.fi_acks) ->
      fi.fi_acks <- src :: fi.fi_acks;
      Obs.Metric.incr t.c_acks;
      check_quorum t instance
    | Some _ | None -> ())
  | Msg.Commit { instance; ballot } -> commit_noticed t instance ballot
  | Msg.Heartbeat { ballot; committed_upto; hb_seq } ->
    if Ballot.compare ballot (Store.promised t.st) >= 0 then begin
      Store.set_promised t.st ballot;
      observe_ballot t ballot;
      followed t;
      if lease_on t then begin
        (* Grant (or renew) the lease: promise, on our clock, not to
           promise anyone else for [lease_duration] from receipt. *)
        t.grant_ballot <- ballot;
        t.grant_until <- local_now t +. t.cfg.lease_duration;
        Obs.Metric.incr t.c_lease_grants;
        send t src (Msg.Lease_grant { ballot; hb_seq })
      end;
      request_catch_up t src committed_upto
    end
    else send t src (Msg.Nack { ballot = Store.promised t.st })
  | Msg.Lease_grant { ballot; hb_seq } ->
    if t.role = Leader && Ballot.compare ballot t.ballot = 0 then begin
      match Hashtbl.find_opt t.hb_sent hb_seq with
      | Some sent ->
        Obs.Metric.incr t.c_lease_renewals;
        let newer =
          match Hashtbl.find_opt t.grants src with
          | Some cur -> sent > cur
          | None -> true
        in
        if newer then Hashtbl.replace t.grants src sent
      | None -> ()  (* send-time record already pruned: too old to use *)
    end
  | Msg.Learn { from_instance } ->
    let upto =
      min (Store.committed_upto t.st) (from_instance + learn_batch - 1)
    in
    if upto >= from_instance then
      send t src
        (Msg.Learn_reply
           { entries = Store.committed_range t.st ~from_i:from_instance ~upto })
  | Msg.Learn_reply { entries } ->
    List.iter (fun (i, v) -> Store.commit t.st i v) entries;
    deliver t;
    (match t.lead_after_catchup with
    | Some target when Store.committed_upto t.st >= target ->
      t.lead_after_catchup <- None;
      if t.role = Candidate then drive_next_proposal t
    | Some target ->
      (* keep pulling until we reach the target *)
      if entries <> [] then request_catch_up t src target
    | None ->
      (* There may be more to learn. *)
      if entries <> [] then
        request_catch_up t src (Store.committed_upto t.st + learn_batch))

let create net cfg st cbs =
  let eng = Net.engine net in
  let obs = Engine.obs eng in
  let labels = [ ("node", string_of_int cfg.me) ] in
  let t =
    {
      net;
      cfg;
      st;
      cbs;
      rng = Rng.split (Engine.rng eng);
      role = Follower;
      ballot = Store.promised st;
      announced = Ballot.zero;
      leader = None;
      last_contact = Engine.local_clock eng cfg.me;
      pre_votes = None;
      peers =
        (match Store.group st with Some g -> g | None -> cfg.peers);
      reconfig_at = 0;
      campaign_promises = [];
      campaign_open = false;
      lead_after_catchup = None;
      recovery_queue = [];
      inflight = Hashtbl.create 4;
      held = [];
      delivered = Store.committed_upto st;
      grant_ballot = Ballot.zero;
      grant_until = neg_infinity;
      hb_seq = 0;
      hb_sent = Hashtbl.create 16;
      grants = Hashtbl.create 4;
      lease_was_valid = false;
      obs;
      c_proposals = Obs.counter obs ~subsystem:"paxos" ~labels "proposals";
      c_commits = Obs.counter obs ~subsystem:"paxos" ~labels "commits";
      c_acks = Obs.counter obs ~subsystem:"paxos" ~labels "accept_acks";
      c_campaigns = Obs.counter obs ~subsystem:"paxos" ~labels "campaigns";
      c_lease_grants =
        Obs.counter obs ~subsystem:"paxos" ~labels "lease_grants";
      c_lease_renewals =
        Obs.counter obs ~subsystem:"paxos" ~labels "lease_renewals";
      c_lease_expiries =
        Obs.counter obs ~subsystem:"paxos" ~labels "lease_expiries";
      c_window_full = Obs.counter obs ~subsystem:"paxos" ~labels "window_full";
      h_commit = Obs.histogram obs ~subsystem:"paxos" ~labels "commit_latency";
    }
  in
  Net.register net ~node:cfg.me ~port (fun ~src payload ->
      match Msg.decode payload with
      | msg -> handle t ~src msg
      | exception Codec.Decode_error _ -> ());
  t

let start t =
  let eng = Net.engine t.net in
  (* Election watchdog, polled once per heartbeat.  A replica that has
     lost its leader tries at once: the detection delay already covers
     its own grant, so it never campaigns against a lease it extended.
     Replica k of n, in the current membership, polls (k + 1/2)/n of a
     heartbeat into each period counted from its start, so replicas
     started together never notice a silent leader at the same instant,
     and the first to notice is elected alone; at start-up that is the
     first replica in the list, the one clients try first.  A replica
     started later keeps its own offset, and two may then notice
     together.  Only the retry after an attempt that elected no one is
     randomised, over [d, 2d] for the detection delay [d], which also
     separates such a pair. *)
  let phase () =
    let n = List.length t.peers in
    let rank = Option.value (List.find_index (( = ) t.cfg.me) t.peers) ~default:0 in
    t.cfg.heartbeat_period *. (float_of_int rank +. 0.5) /. float_of_int (max n 1)
  in
  ignore
    (Engine.spawn eng ~node:t.cfg.me ~name:"paxos.election" (fun () ->
         let tried = ref neg_infinity and retry = ref 0. in
         let slot = ref (phase ()) in
         Engine.sleep !slot;
         while true do
           (* move to the slot of the current membership *)
           let s = phase () in
           Engine.sleep (t.cfg.heartbeat_period +. (s -. !slot));
           slot := s;
           let lost =
             if t.last_contact >= !tried then leader_silent t
             else local_now t > !tried +. !retry
           in
           if t.role <> Leader && is_member t && lost then begin
             tried := local_now t;
             retry := detection_delay t *. (1. +. Rng.float t.rng 1.);
             pre_vote t;
             tally_pre_votes t
           end
         done));
  (* Leader heartbeats.  Also retransmits Accepts for instances that have
     been open longer than a heartbeat period: the initial broadcast is
     the only other send, so on a lossy network a dropped Accept (or
     Accepted ack) would otherwise wedge the instance forever — and with
     [max_inflight = 1] wedge the whole proposer behind it.  Acceptors
     treat a repeat Accept idempotently and re-ack; [fi_acks] dedups. *)
  ignore
    (Engine.spawn eng ~node:t.cfg.me ~name:"paxos.heartbeat" (fun () ->
         while true do
           Engine.sleep t.cfg.heartbeat_period;
           if t.role = Leader then begin
             t.hb_seq <- t.hb_seq + 1;
             Hashtbl.replace t.hb_sent t.hb_seq (local_now t);
             (* keep a bounded window of send-time records *)
             Hashtbl.remove t.hb_sent (t.hb_seq - 64);
             broadcast t
               (Msg.Heartbeat
                  {
                    ballot = t.ballot;
                    committed_upto = Store.committed_upto t.st;
                    hb_seq = t.hb_seq;
                  });
             Hashtbl.iter
               (fun _ fi ->
                 if now t -. fi.fi_started >= t.cfg.heartbeat_period then
                   broadcast t
                     (Msg.Accept
                        {
                          ballot = fi.fi_ballot;
                          instance = fi.fi_instance;
                          value = fi.fi_value;
                          prior = [];
                          commits = [];
                        }))
               t.inflight
           end
         done))

let propose t value =
  if not (can_propose t) then false
  else begin
    start_accept t ~instance:(next_instance t) ~value ~recovery:false;
    true
  end

(* One membership change at a time: the new list must differ from the
   current one by exactly one replica (an add XOR a remove), so the old
   and new majorities intersect and no two leaders of adjacent configs
   can commit independently.  Replace = add, then remove. *)
let valid_transition current proposed =
  let sorted_distinct l = List.sort_uniq compare l in
  let cur = sorted_distinct current and next = sorted_distinct proposed in
  List.length next = List.length proposed
  && next <> []
  &&
  let added = List.filter (fun p -> not (List.mem p cur)) next in
  let removed = List.filter (fun p -> not (List.mem p next)) cur in
  match (added, removed) with [ _ ], [] | [], [ _ ] -> true | _ -> false

let propose_reconfig t new_peers =
  if
    (not (can_propose t))
    || in_flight t (* no app entry may straddle the config switch *)
    || not (valid_transition t.peers new_peers)
  then false
  else begin
    let instance = next_instance t in
    t.reconfig_at <- instance;
    start_accept t ~instance ~value:(encode_cfg new_peers) ~recovery:false;
    true
  end

(* A loaded leader always has an instance open, and Paxos takes a config
   entry only while none is: the caller holds its proposer, and this
   fiber proposes the entry once the open instances have committed, then
   waits for its delivery, polling both every [reconfig_poll]. *)
let reconfig_poll = 1e-3

let reconfig_when_idle t new_peers ~live ~release =
  let wait_while cond =
    while live () && cond () do
      Engine.sleep reconfig_poll
    done
  in
  ignore
    (Engine.spawn (Net.engine t.net) ~node:t.cfg.me ~name:"paxos.reconfig"
       (fun () ->
         wait_while (fun () -> in_flight t);
         if live () && propose_reconfig t new_peers then
           wait_while (fun () -> reconfig_pending t);
         if live () then release ()))

let committed_value t i =
  match Store.committed t.st i with
  | Some v when is_cfg_value v -> None (* internal config entry *)
  | r -> r
