open Sim

let vm_port = Net.port "chain.vm"
let view_port = Net.port "chain.view"
let data_port = Net.port "chain.data"

(* --- Wire --- *)

type msg =
  | Hello of int  (* member announces itself to the VM *)
  | Heartbeat of int
  | View of { view_id : int; chain : int list }
  | Update of { view_id : int; seq : int; value : string }
  | Ack of { view_id : int; upto : int }
  | Sync_req of { from_seq : int }
  | Sync_reply of { entries : (int * string) list }

let write b = function
  | Hello n ->
    Codec.write_byte b 0;
    Codec.write_uvarint b n
  | Heartbeat n ->
    Codec.write_byte b 1;
    Codec.write_uvarint b n
  | View { view_id; chain } ->
    Codec.write_byte b 2;
    Codec.write_uvarint b view_id;
    Codec.write_list b Codec.write_uvarint chain
  | Update { view_id; seq; value } ->
    Codec.write_byte b 3;
    Codec.write_uvarint b view_id;
    Codec.write_uvarint b seq;
    Codec.write_string b value
  | Ack { view_id; upto } ->
    Codec.write_byte b 4;
    Codec.write_uvarint b view_id;
    Codec.write_uvarint b upto
  | Sync_req { from_seq } ->
    Codec.write_byte b 5;
    Codec.write_uvarint b from_seq
  | Sync_reply { entries } ->
    Codec.write_byte b 6;
    Codec.write_list b
      (fun b (i, v) ->
        Codec.write_uvarint b i;
        Codec.write_string b v)
      entries

let read s =
  match Codec.read_byte s with
  | 0 -> Hello (Codec.read_uvarint s)
  | 1 -> Heartbeat (Codec.read_uvarint s)
  | 2 ->
    let view_id = Codec.read_uvarint s in
    let chain = Codec.read_list s Codec.read_uvarint in
    View { view_id; chain }
  | 3 ->
    let view_id = Codec.read_uvarint s in
    let seq = Codec.read_uvarint s in
    let value = Codec.read_string s in
    Update { view_id; seq; value }
  | 4 ->
    let view_id = Codec.read_uvarint s in
    let upto = Codec.read_uvarint s in
    Ack { view_id; upto }
  | 5 -> Sync_req { from_seq = Codec.read_uvarint s }
  | 6 ->
    Sync_reply
      {
        entries =
          Codec.read_list s (fun s ->
              let i = Codec.read_uvarint s in
              let v = Codec.read_string s in
              (i, v));
      }
  | n -> raise (Codec.Decode_error (Printf.sprintf "bad chain msg tag %d" n))

let encode m = Codec.encode (Fun.flip write) m

(* --- View manager --- *)

(* A member silent this long is dropped from the chain. *)
let heartbeat_timeout = 50e-3

let view_manager net ~node ~replicas () =
  let eng = Net.engine net in
  let last_seen : (int, float) Hashtbl.t = Hashtbl.create 8 in
  let chain = ref [] in
  let view_id = ref 0 in
  let publish () =
    incr view_id;
    let v = encode (View { view_id = !view_id; chain = !chain }) in
    List.iter
      (fun r -> Net.send net ~src:node ~dst:r ~port:view_port v)
      replicas
  in
  let admit n =
    if not (List.mem n !chain) then begin
      chain := !chain @ [ n ];
      (* joiners become the new tail *)
      publish ()
    end
  in
  Net.register net ~node ~port:vm_port (fun ~src:_ payload ->
      match Codec.decode read payload with
      | Hello n ->
        Hashtbl.replace last_seen n (Engine.clock eng);
        admit n
      | Heartbeat n -> Hashtbl.replace last_seen n (Engine.clock eng)
      | View _ | Update _ | Ack _ | Sync_req _ | Sync_reply _ -> ()
      | exception Codec.Decode_error _ -> ());
  ignore
    (Engine.spawn eng ~node ~name:"chain.vm" (fun () ->
         while true do
           Engine.sleep (heartbeat_timeout /. 2.);
           let now = Engine.clock eng in
           let dead =
             List.filter
               (fun r ->
                 match Hashtbl.find_opt last_seen r with
                 | Some t -> now -. t > heartbeat_timeout
                 | None -> false)
               !chain
           in
           if dead <> [] then begin
             chain := List.filter (fun r -> not (List.mem r dead)) !chain;
             List.iter (Hashtbl.remove last_seen) dead;
             publish ()
           end
         done))

(* --- Member --- *)

type member = {
  net : Net.t;
  node : int;
  vm_node : int;
  st : Paxos.Store.t;
  cbs : Agreement.callbacks;
  window : int;
  mutable view_id : int;
  mutable chain : int list;
  mutable delivered : int;
  mutable was_head : bool;
  mutable leadership_announced : bool;
  mutable announced_head : int option;
}

let position m = List.find_index (( = ) m.node) m.chain
let is_member m = position m <> None
let is_head m = match m.chain with h :: _ -> h = m.node | [] -> false
let is_tail m =
  match List.rev m.chain with t :: _ -> t = m.node | [] -> false

let successor m =
  match position m with
  | Some i when i + 1 < List.length m.chain -> Some (List.nth m.chain (i + 1))
  | Some _ | None -> None

let predecessor m =
  match position m with
  | Some i when i > 0 -> Some (List.nth m.chain (i - 1))
  | Some _ | None -> None

let send_to m dst msg =
  Net.send m.net ~src:m.node ~dst ~port:data_port (encode msg)

(* Highest sequence present (committed or accepted) contiguously. *)
let contiguous m =
  let rec go i =
    if Paxos.Store.committed m.st (i + 1) <> None
       || Paxos.Store.accepted m.st (i + 1) <> None
    then go (i + 1)
    else i
  in
  go (Paxos.Store.committed_upto m.st)

let deliver m =
  while m.delivered < Paxos.Store.committed_upto m.st do
    let i = m.delivered + 1 in
    m.delivered <- i;
    match Paxos.Store.committed m.st i with
    | Some v -> m.cbs.Agreement.on_committed i v
    | None -> () (* subsumed by a checkpoint fast-forward *)
  done

let commit_upto m upto =
  let rec go i =
    if i <= upto then begin
      (match Paxos.Store.committed m.st i with
      | Some _ -> ()
      | None -> (
        match Paxos.Store.accepted m.st i with
        | Some (_, v) -> Paxos.Store.commit m.st i v
        | None -> ()));
      go (i + 1)
    end
  in
  go (Paxos.Store.committed_upto m.st + 1);
  deliver m

(* A new head leads only once everything it inherited has committed (the
   analogue of Paxos recovery re-proposals). *)
let maybe_announce_leadership m =
  if is_head m then begin
    if
      (not m.leadership_announced)
      && contiguous m = Paxos.Store.committed_upto m.st
    then begin
      m.leadership_announced <- true;
      m.cbs.Agreement.on_become_leader ()
    end
  end

let forward_pending m =
  match successor m with
  | None ->
    (* Tail (or singleton): everything contiguous is committed. *)
    let c = contiguous m in
    commit_upto m c;
    (match predecessor m with
    | Some p -> send_to m p (Ack { view_id = m.view_id; upto = c })
    | None -> ());
    maybe_announce_leadership m
  | Some next ->
    List.iter
      (fun (i, _, v) ->
        send_to m next (Update { view_id = m.view_id; seq = i; value = v }))
      (Paxos.Store.accepted_above m.st (Paxos.Store.committed_upto m.st))

let request_sync m =
  match predecessor m with
  | Some p ->
    send_to m p (Sync_req { from_seq = Paxos.Store.committed_upto m.st + 1 })
  | None -> ()

let on_view m view_id chain =
  if view_id > m.view_id then begin
    m.view_id <- view_id;
    m.chain <- chain;
    let head_now = is_head m in
    if m.was_head && not head_now then begin
      m.leadership_announced <- false;
      match chain with
      | h :: _ when m.announced_head <> Some h ->
        m.announced_head <- Some h;
        m.cbs.Agreement.on_new_leader h
      | _ -> ()
    end;
    (match chain with
    | h :: _ when h <> m.node && m.announced_head <> Some h ->
      m.announced_head <- Some h;
      m.cbs.Agreement.on_new_leader h
    | _ -> ());
    m.was_head <- head_now;
    if is_member m then begin
      (* Uniform repair: push the unacknowledged suffix down the (new)
         chain; tails re-acknowledge; joiners pull what they miss. *)
      forward_pending m;
      if Paxos.Store.committed_upto m.st < contiguous m || not head_now then
        request_sync m;
      maybe_announce_leadership m
    end
  end

let on_update m view_id seq value =
  if view_id >= m.view_id && is_member m && not (is_head m) then begin
    if
      Paxos.Store.committed m.st seq = None
      && Paxos.Store.accepted m.st seq = None
    then
      Paxos.Store.set_accepted m.st seq
        { Paxos.Ballot.round = view_id; replica = 0 }
        value;
    (* A gap means we joined mid-stream: pull the prefix. *)
    if Paxos.Store.committed m.st seq = None && contiguous m < seq then
      request_sync m;
    match successor m with
    | Some next ->
      send_to m next (Update { view_id = m.view_id; seq; value })
    | None ->
      let c = contiguous m in
      commit_upto m c;
      (match predecessor m with
      | Some p -> send_to m p (Ack { view_id = m.view_id; upto = c })
      | None -> ())
  end

let on_ack m view_id upto =
  if view_id >= m.view_id && is_member m then begin
    commit_upto m upto;
    (match predecessor m with
    | Some p -> send_to m p (Ack { view_id = m.view_id; upto })
    | None -> ());
    maybe_announce_leadership m
  end

let on_sync_req m ~src from_seq =
  let upto = contiguous m in
  let rec collect i acc =
    if i < from_seq then acc
    else
      let v =
        match Paxos.Store.committed m.st i with
        | Some v -> Some v
        | None -> Option.map snd (Paxos.Store.accepted m.st i)
      in
      match v with Some v -> collect (i - 1) ((i, v) :: acc) | None -> acc
  in
  let entries = collect upto [] in
  if entries <> [] then send_to m src (Sync_reply { entries })

let on_sync_reply m entries =
  List.iter
    (fun (i, v) ->
      if Paxos.Store.committed m.st i = None && Paxos.Store.accepted m.st i = None
      then
        Paxos.Store.set_accepted m.st i
          { Paxos.Ballot.round = m.view_id; replica = 0 }
          v)
    entries;
  (* What we now hold contiguously is committed below us by definition of
     sync (it came from upstream); if we are tail it commits here. *)
  if is_tail m then begin
    let c = contiguous m in
    commit_upto m c;
    match predecessor m with
    | Some p -> send_to m p (Ack { view_id = m.view_id; upto = c })
    | None -> ()
  end;
  maybe_announce_leadership m

let make ?(window = 8) ?(heartbeat_period = 10e-3) net ~node ~vm_node ~store
    cbs =
  let m =
    {
      net;
      node;
      vm_node;
      st = store;
      cbs;
      window;
      view_id = 0;
      chain = [];
      delivered = Paxos.Store.committed_upto store;
      was_head = false;
      leadership_announced = false;
      announced_head = None;
    }
  in
  Net.register net ~node ~port:view_port (fun ~src:_ payload ->
      match Codec.decode read payload with
      | View { view_id; chain } -> on_view m view_id chain
      | _ -> ()
      | exception Codec.Decode_error _ -> ());
  Net.register net ~node ~port:data_port (fun ~src payload ->
      match Codec.decode read payload with
      | Update { view_id; seq; value } -> on_update m view_id seq value
      | Ack { view_id; upto } -> on_ack m view_id upto
      | Sync_req { from_seq } -> on_sync_req m ~src from_seq
      | Sync_reply { entries } -> on_sync_reply m entries
      | _ -> ()
      | exception Codec.Decode_error _ -> ());
  let start () =
    Net.send net ~src:node ~dst:vm_node ~port:vm_port (encode (Hello node));
    ignore
      (Engine.spawn (Net.engine net) ~node ~name:"chain.hb" (fun () ->
           while true do
             Engine.sleep heartbeat_period;
             Net.send net ~src:node ~dst:vm_node ~port:vm_port
               (encode (Heartbeat node))
           done))
  in
  let pending () = contiguous m - Paxos.Store.committed_upto m.st in
  let can_propose () =
    is_head m && m.leadership_announced && pending () < m.window
  in
  let next_instance () = contiguous m + 1 in
  let propose v =
    if not (can_propose ()) then false
    else begin
      let seq = next_instance () in
      Paxos.Store.set_accepted m.st seq
        { Paxos.Ballot.round = m.view_id; replica = 0 }
        v;
      (match successor m with
      | Some next ->
        send_to m next (Update { view_id = m.view_id; seq; value = v })
      | None ->
        (* singleton chain *)
        commit_upto m seq);
      true
    end
  in
  {
    Agreement.start;
    propose;
    can_propose;
    next_instance;
    is_leader = (fun () -> is_head m && m.leadership_announced);
    leader_hint = (fun () -> match m.chain with h :: _ -> Some h | [] -> None);
    committed_upto = (fun () -> Paxos.Store.committed_upto m.st);
    committed = (fun i -> Paxos.Store.committed m.st i);
    truncate_below = (fun i -> Paxos.Store.truncate_below m.st i);
    fast_forward =
      (fun i ->
        Paxos.Store.fast_forward m.st i;
        if m.delivered < i then m.delivered <- i);
    (* Chain replication has no leases; head reads fall back to the
       quorum/ordered paths. *)
    lease_valid = (fun () -> false);
    read_index = (fun () -> Paxos.Store.committed_upto m.st);
    (* Membership is the VM's view; log-driven reconfiguration is a
       Paxos-only feature (the VM already handles joins/failures). *)
    peers = (fun () -> if m.chain = [] then [ m.node ] else m.chain);
    reconfig = (fun _ ~live:_ ~release:_ -> false);
  }
