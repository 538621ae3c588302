type pending = { mutable result : string option; waker : Engine.waker }

(* RFC 6298's smoothed round trip (alpha 1/8) and mean deviation
   (beta 1/4). *)
module Rtt = struct
  type t = { mutable srtt : float; mutable rttvar : float; mutable seen : bool }

  let create () = { srtt = 0.; rttvar = 0.; seen = false }

  let observe t r =
    if not t.seen then begin
      t.seen <- true;
      t.srtt <- r;
      t.rttvar <- r /. 2.
    end
    else begin
      t.rttvar <- (0.75 *. t.rttvar) +. (0.25 *. Float.abs (t.srtt -. r));
      t.srtt <- (0.875 *. t.srtt) +. (0.125 *. r)
    end

  let timeout t ~floor =
    if t.seen then Some (Float.max floor (t.srtt +. (4. *. t.rttvar))) else None
end

(* Both tables hash and compare ints only: a call id is its own hash,
   and a port is its interned id. *)
module Ids = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash i = i
end)

module Node_port = Hashtbl.Make (struct
  type t = int * Net.port

  let equal (n, (p : Net.port)) (m, (q : Net.port)) = Int.equal n m && Int.equal p.id q.id
  let hash (n, (p : Net.port)) = (n * 65599) + p.id
end)

type t = {
  net : Net.t;
  pending : pending Ids.t;
  mutable next_id : int;
  rtts : Rtt.t Node_port.t;
}

let reply_port = Net.port "rpc.reply"

let read_frame s =
  let id = Codec.read_uvarint s in
  (id, Codec.read_string s)

(* [f id body] for a well-formed frame.  A malformed one is dropped and
   counted, never raised into the engine; the counter is registered on
   the first, so a run without one registers nothing. *)
let with_frame t payload f =
  match Codec.decode read_frame payload with
  | id, body -> f id body
  | exception Codec.Decode_error _ ->
    Obs.Metric.incr
      (Obs.counter (Engine.obs (Net.engine t.net)) ~subsystem:"rpc" "decode_errors")

let on_reply t ~src:_ payload =
  with_frame t payload (fun id body ->
      match Ids.find_opt t.pending id with
      | None -> () (* Caller already timed out. *)
      | Some p ->
        p.result <- Some body;
        Engine.wake p.waker)

let attach_node t ~node = Net.register t.net ~node ~port:reply_port (on_reply t)

let create net =
  let t =
    { net; pending = Ids.create 64; next_id = 0; rtts = Node_port.create 4 }
  in
  let eng = Net.engine net in
  for node = 0 to Engine.num_nodes eng - 1 do
    attach_node t ~node
  done;
  t

let encode_request id body =
  let b = Codec.sink ~initial_capacity:(Codec.uvarint_size id + Codec.string_size body) () in
  Codec.write_uvarint b id;
  Codec.write_string b body;
  Codec.contents b

let serve_async t ~node ~port handler =
  Net.register t.net ~node ~port (fun ~src payload ->
      with_frame t payload (fun id body ->
          let reply resp =
            Net.send t.net ~src:node ~dst:src ~port:reply_port
              (encode_request id resp)
          in
          handler ~src body ~reply))

let net t = t.net

let rtt t ~node ~port =
  match Node_port.find_opt t.rtts (node, port) with
  | Some r -> r
  | None ->
    let r = Rtt.create () in
    Node_port.replace t.rtts (node, port) r;
    r

let serve t ~node ~port handler =
  serve_async t ~node ~port (fun ~src body ~reply -> reply (handler ~src body))

let call t ~src ~dst ~port ?(timeout = 1.0) body =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  let eng = Net.engine t.net in
  let result = ref None and expiry = ref None in
  Engine.park (fun w ->
      let p = { result = None; waker = w } in
      Ids.replace t.pending id p;
      result := Some p;
      Net.send t.net ~src ~dst ~port (encode_request id body);
      expiry :=
        Some
          (Engine.schedule_event eng
             ~at:(Engine.clock eng +. timeout)
             (fun () -> Engine.wake w)));
  (* An answered call takes its timeout out of the event queue, where it
     would otherwise sit until it fired as a no-op. *)
  Option.iter (Engine.cancel eng) !expiry;
  match !result with
  | None -> None
  | Some p ->
    Ids.remove t.pending id;
    p.result
