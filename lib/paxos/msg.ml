type t =
  | Prepare of { ballot : Ballot.t }
  | Promise of {
      ballot : Ballot.t;
      accepted : (int * Ballot.t * string) list;
      committed_upto : int;
    }
  | Nack of { ballot : Ballot.t }
  | Accept of {
      ballot : Ballot.t;
      instance : int;
      value : string;
      prior : (int * string) list;
      commits : (int * Ballot.t) list;
    }
  | Accepted of { ballot : Ballot.t; instance : int }
  | Commit of { instance : int; ballot : Ballot.t }
  | Heartbeat of { ballot : Ballot.t; committed_upto : int; hb_seq : int }
  | Learn of { from_instance : int }
  | Learn_reply of { entries : (int * string) list }
  | Lease_grant of { ballot : Ballot.t; hb_seq : int }
      (* a follower's lease extension for the heartbeat numbered [hb_seq];
         echoing the sequence number lets the leader anchor the grant
         window at the heartbeat's *send* time on its own clock *)
  | Pre_vote of { ballot : Ballot.t }
  | Pre_vote_reply of { ballot : Ballot.t; granted : bool }

let write b = function
  | Prepare { ballot } ->
    Codec.write_byte b 0;
    Ballot.write b ballot
  | Promise { ballot; accepted; committed_upto } ->
    Codec.write_byte b 1;
    Ballot.write b ballot;
    Codec.write_list b
      (fun b (i, bal, v) ->
        Codec.write_uvarint b i;
        Ballot.write b bal;
        Codec.write_string b v)
      accepted;
    Codec.write_uvarint b committed_upto
  | Nack { ballot } ->
    Codec.write_byte b 2;
    Ballot.write b ballot
  | Accept { ballot; instance; value; prior; commits } ->
    Codec.write_byte b 3;
    Ballot.write b ballot;
    Codec.write_uvarint b instance;
    Codec.write_string b value;
    Codec.write_list b
      (fun b (i, v) ->
        Codec.write_uvarint b i;
        Codec.write_string b v)
      prior;
    Codec.write_list b
      (fun b (i, bal) ->
        Codec.write_uvarint b i;
        Ballot.write b bal)
      commits
  | Accepted { ballot; instance } ->
    Codec.write_byte b 4;
    Ballot.write b ballot;
    Codec.write_uvarint b instance
  | Commit { instance; ballot } ->
    Codec.write_byte b 5;
    Codec.write_uvarint b instance;
    Ballot.write b ballot
  | Heartbeat { ballot; committed_upto; hb_seq } ->
    Codec.write_byte b 6;
    Ballot.write b ballot;
    Codec.write_uvarint b committed_upto;
    Codec.write_uvarint b hb_seq
  | Lease_grant { ballot; hb_seq } ->
    Codec.write_byte b 9;
    Ballot.write b ballot;
    Codec.write_uvarint b hb_seq
  | Pre_vote { ballot } ->
    Codec.write_byte b 10;
    Ballot.write b ballot
  | Pre_vote_reply { ballot; granted } ->
    Codec.write_byte b 11;
    Ballot.write b ballot;
    Codec.write_bool b granted
  | Learn { from_instance } ->
    Codec.write_byte b 7;
    Codec.write_uvarint b from_instance
  | Learn_reply { entries } ->
    Codec.write_byte b 8;
    Codec.write_list b
      (fun b (i, v) ->
        Codec.write_uvarint b i;
        Codec.write_string b v)
      entries

let read s =
  match Codec.read_byte s with
  | 0 -> Prepare { ballot = Ballot.read s }
  | 1 ->
    let ballot = Ballot.read s in
    let accepted =
      Codec.read_list s (fun s ->
          let i = Codec.read_uvarint s in
          let bal = Ballot.read s in
          let v = Codec.read_string s in
          (i, bal, v))
    in
    let committed_upto = Codec.read_uvarint s in
    Promise { ballot; accepted; committed_upto }
  | 2 -> Nack { ballot = Ballot.read s }
  | 3 ->
    let ballot = Ballot.read s in
    let instance = Codec.read_uvarint s in
    let value = Codec.read_string s in
    let prior =
      Codec.read_list s (fun s ->
          let i = Codec.read_uvarint s in
          let v = Codec.read_string s in
          (i, v))
    in
    let commits =
      Codec.read_list s (fun s ->
          let i = Codec.read_uvarint s in
          let bal = Ballot.read s in
          (i, bal))
    in
    Accept { ballot; instance; value; prior; commits }
  | 4 ->
    let ballot = Ballot.read s in
    let instance = Codec.read_uvarint s in
    Accepted { ballot; instance }
  | 5 ->
    let instance = Codec.read_uvarint s in
    let ballot = Ballot.read s in
    Commit { instance; ballot }
  | 6 ->
    let ballot = Ballot.read s in
    let committed_upto = Codec.read_uvarint s in
    let hb_seq = Codec.read_uvarint s in
    Heartbeat { ballot; committed_upto; hb_seq }
  | 7 -> Learn { from_instance = Codec.read_uvarint s }
  | 9 ->
    let ballot = Ballot.read s in
    let hb_seq = Codec.read_uvarint s in
    Lease_grant { ballot; hb_seq }
  | 10 -> Pre_vote { ballot = Ballot.read s }
  | 11 ->
    let ballot = Ballot.read s in
    let granted = Codec.read_bool s in
    Pre_vote_reply { ballot; granted }
  | 8 ->
    Learn_reply
      {
        entries =
          Codec.read_list s (fun s ->
              let i = Codec.read_uvarint s in
              let v = Codec.read_string s in
              (i, v));
      }
  | n -> raise (Codec.Decode_error (Printf.sprintf "bad paxos msg tag %d" n))

(* A sink that rarely grows: values dominate a message's size. *)
let size_hint = function
  | Accept { value; prior; _ } ->
    List.fold_left (fun n (_, v) -> n + 12 + String.length v) (32 + String.length value) prior
  | Learn_reply { entries } ->
    List.fold_left (fun n (_, v) -> n + 12 + String.length v) 16 entries
  | Promise { accepted; _ } ->
    List.fold_left (fun n (_, _, v) -> n + 24 + String.length v) 32 accepted
  | Prepare _ | Nack _ | Accepted _ | Commit _ | Heartbeat _ | Learn _
  | Lease_grant _ | Pre_vote _ | Pre_vote_reply _ -> 32

let encode m =
  let b = Codec.sink ~initial_capacity:(size_hint m) () in
  write b m;
  Codec.contents b
let decode s = Codec.decode read s

let pp ppf = function
  | Prepare { ballot } -> Fmt.pf ppf "prepare(%a)" Ballot.pp ballot
  | Promise { ballot; accepted; committed_upto } ->
    Fmt.pf ppf "promise(%a,%d acc,upto %d)" Ballot.pp ballot
      (List.length accepted) committed_upto
  | Nack { ballot } -> Fmt.pf ppf "nack(%a)" Ballot.pp ballot
  | Accept { ballot; instance; prior; commits; _ } ->
    Fmt.pf ppf "accept(%a,i%d,+%d prior,+%d commits)" Ballot.pp ballot instance
      (List.length prior) (List.length commits)
  | Accepted { ballot; instance } ->
    Fmt.pf ppf "accepted(%a,i%d)" Ballot.pp ballot instance
  | Commit { instance; _ } -> Fmt.pf ppf "commit(i%d)" instance
  | Heartbeat { ballot; committed_upto; hb_seq } ->
    Fmt.pf ppf "heartbeat(%a,upto %d,#%d)" Ballot.pp ballot committed_upto
      hb_seq
  | Lease_grant { ballot; hb_seq } ->
    Fmt.pf ppf "lease_grant(%a,#%d)" Ballot.pp ballot hb_seq
  | Pre_vote { ballot } -> Fmt.pf ppf "pre_vote(%a)" Ballot.pp ballot
  | Pre_vote_reply { ballot; granted } ->
    Fmt.pf ppf "pre_vote_reply(%a,%b)" Ballot.pp ballot granted
  | Learn { from_instance } -> Fmt.pf ppf "learn(from %d)" from_instance
  | Learn_reply { entries } -> Fmt.pf ppf "learn_reply(%d)" (List.length entries)
