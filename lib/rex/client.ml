open Sim

type reply = Ok_reply of string | Not_leader of int option | Dropped | Busy

let client_port = Net.port "rex.client"
let query_port = Net.port "rex.query"
let read_port = Net.port "rex.read"

(* Each reply is encoded into a buffer of exactly its wire size. *)
let encode_reply = function
  | Ok_reply s ->
    let b = Codec.sink ~initial_capacity:(1 + Codec.string_size s) () in
    Codec.write_byte b 0;
    Codec.write_string b s;
    Codec.contents b
  | Not_leader hint ->
    let h = Option.value hint ~default:(-1) in
    let b = Codec.sink ~initial_capacity:(1 + Codec.varint_size h) () in
    Codec.write_byte b 1;
    Codec.write_varint b h;
    Codec.contents b
  | Dropped -> "\002"
  | Busy -> "\003"

let decode_reply s =
  let src = Codec.source s in
  match Codec.read_byte src with
  | 0 -> Ok_reply (Codec.read_string src)
  | 1 ->
    let h = Codec.read_varint src in
    Not_leader (if h < 0 then None else Some h)
  | 2 -> Dropped
  | 3 -> Busy
  | n -> raise (Codec.Decode_error (Printf.sprintf "bad reply tag %d" n))

(* See client.mli: a late timeout never undoes a newer redirect. *)
module Guess = struct
  type t = {
    mutable nodes : int array;
    mutable idx : int;
    mutable version : int;
    mutable suspect : int;  (* timed out and not heard from since, or -1 *)
  }

  let of_list = function
    | [] -> invalid_arg "Client.Guess: no replicas"
    | nodes -> Array.of_list nodes

  let create nodes = { nodes = of_list nodes; idx = 0; version = 0; suspect = -1 }
  let leader g = g.nodes.(g.idx)
  let version g = g.version

  let move g i =
    g.idx <- i;
    g.version <- g.version + 1

  (* The last index of [node] (as the unversioned guess picked), or -1. *)
  let index g node =
    let rec go i = if i < 0 || g.nodes.(i) = node then i else go (i - 1) in
    go (Array.length g.nodes - 1)

  let redirect g node = match index g node with -1 -> () | i -> move g i

  let rotate g ~version =
    if version = g.version then move g ((g.idx + 1) mod Array.length g.nodes)

  let timed_out g node = g.suspect <- node
  let answered g node = if g.suspect = node then g.suspect <- -1

  (* The believed leader, or the node after it if that is the suspect. *)
  let target g =
    let n = Array.length g.nodes in
    if n > 1 && g.nodes.(g.idx) = g.suspect then g.nodes.((g.idx + 1) mod n)
    else leader g

  let set_nodes g nodes =
    let leader = leader g in
    g.nodes <- of_list nodes;
    move g (max 0 (index g leader))
end

type call_outcome = Reply of string | Shed | Gave_up
type backoff = { redirect : float; first : float; cap : float; after_timeout : bool }
type event = Hop | Retry | Redirect

(* The per-attempt timeout never drops below this, whatever the round
   trips: above the worst kv-cpu p999 of any stack (5.9 ms, SMR at two
   thirds of capacity), so a loaded leader is not given up on.
   DESIGN.md's client-retry section has the measurements. *)
let attempt_timeout_floor = 10e-3

let send rpc ~me guess backoff ?on ?(count = ignore) ~retries ~timeout ~port
    payload =
  let rtt = Rpc.rtt rpc ~node:me ~port in
  (* [Shed] must certify the request never executed, so it is only
     reported when every attempt got a definitive non-admission answer
     (Busy / Not_leader) and at least one was Busy; any transport
     timeout or Dropped leaves at-most-once ambiguity -> [Gave_up]. *)
  let definitive = ref true and saw_busy = ref false in
  (* A first timeout is what a crashed leader looks like, and the
     follower that sends the call back to it may not have noticed the
     crash yet, so that retry waits the estimate again.  Each later
     timeout doubles the wait (RFC 6298's back-off), so a busy leader
     still gets a patient retry. *)
  let timeouts = ref 0 in
  let rec go dst tries pause =
    if tries = 0 then if !definitive && !saw_busy then Shed else Gave_up
    else begin
      count Hop;
      let version = Guess.version guess in
      (* The guess suspects the node an attempt last timed out on until it
         answers: a call goes there only on a hint of its own, not
         because a sibling call's rotation left the guess there. *)
      let next ?(hinted = false) ~sleep pause =
        if sleep > 0. then Engine.sleep sleep;
        go
          (if hinted then Guess.leader guess else Guess.target guess)
          (tries - 1) pause
      in
      let grown = Float.min (2. *. pause) backoff.cap in
      let sent = Engine.now () in
      let attempt =
        match Rpc.Rtt.timeout rtt ~floor:attempt_timeout_floor with
        | None -> timeout
        | Some rto -> Float.min timeout (Float.ldexp rto (max 0 (!timeouts - 1)))
      in
      let reply = Rpc.call rpc ~src:me ~dst ~port ~timeout:attempt payload in
      (match reply with
      | None -> Guess.timed_out guess dst
      | Some _ -> Guess.answered guess dst);
      match Option.map decode_reply reply with
      | Some (Ok_reply resp) ->
        (* Only a served call is a sample: a redirect or a shed is
           quicker than the wait a call must allow for. *)
        Rpc.Rtt.observe rtt (Engine.now () -. sent);
        Reply resp
      | None | Some Dropped as r ->
        (* A timeout (dead node, stalled group) or a Dropped reply. *)
        if r = None then incr timeouts;
        definitive := false;
        count Retry;
        Guess.rotate guess ~version;
        if backoff.after_timeout then next ~sleep:pause grown
        else next ~sleep:0. pause
      | Some (Not_leader hint) ->
        count Redirect;
        (* Give an election a moment before hammering the next guess. *)
        (match hint with
        | Some h ->
          Guess.redirect guess h;
          next ~hinted:true ~sleep:backoff.redirect pause
        | None ->
          Guess.rotate guess ~version;
          next ~sleep:backoff.redirect pause)
      | Some Busy ->
        (* Admission control shed us: the leader is fine, just
           overloaded.  Retry the same payload there after a pause — the
           session table makes the retry idempotent. *)
        saw_busy := true;
        count Retry;
        next ~sleep:pause grown
    end
  in
  go (Option.value on ~default:(Guess.target guess)) retries backoff.first

(* 5 ms after a redirect or Busy, straight on to the next replica after
   a timeout: DESIGN.md's client-retry section has the measurements. *)
let client_backoff =
  { redirect = 5e-3; first = 5e-3; cap = 5e-3; after_timeout = false }

(* See client.mli: no call's seq runs [window] or more past the oldest
   unfinished one, so the replicas never find a live retry [Stale]. *)
module Seqs = struct
  type t = {
    mutable next : int;
    mutable oldest : int;  (* the lowest unfinished seq; [next] if none *)
    mutable finished : int list;  (* finished seqs above [oldest] *)
    mutable waiting : (int * Engine.waker) list;  (* newest first *)
  }

  let window = Session.Table.default_window
  let create () = { next = 0; oldest = 0; finished = []; waiting = [] }
  let peek t = t.next

  let finish t seq =
    if seq <> t.oldest then t.finished <- seq :: t.finished
    else begin
      let rec advance s =
        if List.mem s t.finished then advance (s + 1) else s
      in
      t.oldest <- advance (seq + 1);
      t.finished <- List.filter (fun s -> s > t.oldest) t.finished;
      if t.waiting <> [] then begin
        let ready, still =
          List.partition (fun (s, _) -> s - t.oldest < window) t.waiting
        in
        t.waiting <- still;
        List.iter (fun (_, w) -> Engine.wake w) (List.rev ready)
      end
    end

  let with_seq t f =
    let seq = t.next in
    t.next <- seq + 1;
    match
      if seq - t.oldest >= window then
        Engine.park (fun w -> t.waiting <- (seq, w) :: t.waiting);
      f seq
    with
    | r ->
      finish t seq;
      r
    | exception e ->
      (* Also a fiber killed while parked: its waker must not linger. *)
      t.waiting <- List.filter (fun (s, _) -> s <> seq) t.waiting;
      finish t seq;
      raise e
end

type t = {
  rpc : Rpc.t;
  me : int;
  guess : Guess.t;
  uid : int;  (* session identity: allocated once per client endpoint *)
  seqs : Seqs.t;
}

let create rpc ~me ~replicas =
  let guess = Guess.create replicas in
  let uid = Engine.fresh_uid (Net.engine (Rpc.net rpc)) in
  { rpc; me; guess; uid; seqs = Seqs.create () }

let client_id t = t.uid
let peek_seq t = Seqs.peek t.seqs
let leader_guess t = Guess.leader t.guess

let call_outcome ?(retries = 8) ?(timeout = 0.1) t request =
  (* One (client, seq) identity per logical request, minted here and
     reused verbatim on every retry — the replicas' session tables key
     their exactly-once guarantee on it.  A fresh [call] with the same
     payload is a new logical request. *)
  Seqs.with_seq t.seqs (fun seq ->
      let envelope =
        Session.Envelope.encode
          { Session.Envelope.client = t.uid; seq; payload = request }
      in
      send t.rpc ~me:t.me t.guess client_backoff ~retries ~timeout
        ~port:client_port envelope)

let reply_of = function Reply resp -> Some resp | Shed | Gave_up -> None

let call ?retries ?timeout t request =
  reply_of (call_outcome ?retries ?timeout t request)

(* Reads run the same discovery loop as [call]; with the quorum read
   path any caught-up replica can answer, so rotation converges fast,
   and reads and writes pool their leader hints in one guess. *)
let query ?on ?(retries = 8) ?(timeout = 0.1) t request =
  reply_of
    (send t.rpc ~me:t.me t.guess client_backoff ?on ~retries ~timeout
       ~port:query_port request)
