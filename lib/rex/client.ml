open Sim

type reply = Ok_reply of string | Not_leader of int option | Dropped | Busy

let client_port = "rex.client"
let query_port = "rex.query"
let read_port = "rex.read"

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

type t = {
  rpc : Rpc.t;
  me : int;
  replicas : int array;
  mutable guess : int;  (* index into replicas *)
  uid : int;  (* session identity: allocated once per client endpoint *)
  mutable next_seq : int;
}

let create rpc ~me ~replicas =
  if replicas = [] then invalid_arg "Client.create";
  let uid = Engine.fresh_uid (Net.engine (Rpc.net rpc)) in
  { rpc; me; replicas = Array.of_list replicas; guess = 0; uid; next_seq = 0 }

let client_id t = t.uid
let peek_seq t = t.next_seq

let leader_guess t = t.replicas.(t.guess)

let point_at t node =
  Array.iteri (fun i r -> if r = node then t.guess <- i) t.replicas

let rotate t = t.guess <- (t.guess + 1) mod Array.length t.replicas

type call_outcome = Reply of string | Shed | Gave_up

let call_outcome ?(retries = 8) ?(timeout = 0.1) t request =
  (* One (client, seq) identity per logical request, minted here and
     reused verbatim on every retry below — the replicas' session tables
     key their exactly-once guarantee on it.  A fresh [call] with the
     same payload is a new logical request. *)
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let envelope =
    Session.Envelope.encode
      { Session.Envelope.client = t.uid; seq; payload = request }
  in
  (* [Shed] must certify the request never executed, so it is only
     reported when every attempt got a definitive non-admission answer
     (Busy / Not_leader) and at least one was Busy; any transport
     timeout or Dropped leaves at-most-once ambiguity -> [Gave_up]. *)
  let definitive = ref true and saw_busy = ref false in
  let rec go tries =
    if tries = 0 then
      if !definitive && !saw_busy then Shed else Gave_up
    else
      match
        Rpc.call t.rpc ~src:t.me ~dst:(leader_guess t) ~port:client_port
          ~timeout envelope
      with
      | None ->
        definitive := false;
        rotate t;
        go (tries - 1)
      | Some reply -> (
        match decode_reply reply with
        | Ok_reply resp -> Reply resp
        | Dropped ->
          definitive := false;
          rotate t;
          go (tries - 1)
        | Not_leader hint ->
          (match hint with Some h -> point_at t h | None -> rotate t);
          (* Give an election a moment before hammering the next guess. *)
          Engine.sleep 5e-3;
          go (tries - 1)
        | Busy ->
          (* Admission control shed us: the leader is fine, just
             overloaded.  Back off without rotating and retry the same
             envelope — the session table makes the retry idempotent. *)
          saw_busy := true;
          Engine.sleep 5e-3;
          go (tries - 1))
  in
  go retries

let call ?retries ?timeout t request =
  match call_outcome ?retries ?timeout t request with
  | Reply resp -> Some resp
  | Shed | Gave_up -> None

let query ?on ?(retries = 8) ?(timeout = 0.1) t request =
  (* Reads run the same discovery loop as [call]: follow Not_leader
     hints, rotate on timeout or Dropped.  With the quorum read path any
     caught-up replica can answer, so rotation converges fast; the
     shared [guess] means reads and writes pool their leader hints. *)
  let rec go ~dst tries =
    if tries = 0 then None
    else
      match Rpc.call t.rpc ~src:t.me ~dst ~port:query_port ~timeout request with
      | None ->
        rotate t;
        go ~dst:(leader_guess t) (tries - 1)
      | Some reply -> (
        match decode_reply reply with
        | Ok_reply resp -> Some resp
        | Dropped ->
          rotate t;
          go ~dst:(leader_guess t) (tries - 1)
        | Not_leader hint ->
          (match hint with Some h -> point_at t h | None -> rotate t);
          (* Give an election a moment before hammering the next guess. *)
          Engine.sleep 5e-3;
          go ~dst:(leader_guess t) (tries - 1)
        | Busy ->
          Engine.sleep 5e-3;
          go ~dst:(leader_guess t) (tries - 1))
  in
  go ~dst:(Option.value on ~default:(leader_guess t)) retries
