module R = Rex_core

type oracle = string -> string list

let words s =
  String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

(* The kv grammar shared by every key/value store in lib/apps (kyoto,
   leveldb, memcache adapters all parse the same verbs).  MGET claims
   every key it touches; a request outside the grammar claims nothing —
   callers that need safety for unparseable requests must treat [] as
   "conflicts with everything" (Exec does; Eve's optimistic mixer lets
   them ride and relies on the verify stage). *)
let kv req =
  match words req with
  | "SET" :: k :: _ | "DEL" :: k :: _ | "GET" :: k :: _ | "RMW" :: k :: _ ->
    [ k ]
  | "MGET" :: keys -> keys
  | _ -> []

(* The INC/GET counter of the check harness and the dedup smoke: one
   logical register, every op conflicts with every other. *)
let counter_key = "ctr"
let counter _req = [ counter_key ]

let session_key client = "\x00session:" ^ string_of_int client

type claim = { client : int option; keys : string list }

(* Session-envelope handling shared by Eve's mixer and both sched
   stacks: a decoded envelope names its client and hands the payload to
   the app-level oracle; a raw (un-enveloped) request passes straight
   through with no client.  A request that *looks* enveloped (magic
   byte) but fails to decode degrades to payload-only keys with no
   client — that silently drops the per-client order, so the degradation
   is counted in [<subsystem>/envelope_decode_errors] instead of being
   swallowed. *)
let claim ~obs ~subsystem ~node oracle =
  let c_decode_errors =
    Obs.counter obs ~subsystem
      ~labels:[ ("node", string_of_int node) ]
      "envelope_decode_errors"
  in
  fun req ->
    match R.Session.Envelope.decode req with
    | Some e ->
      { client = Some e.R.Session.Envelope.client;
        keys = oracle e.R.Session.Envelope.payload }
    | None -> { client = None; keys = oracle req }
    | exception Codec.Decode_error _ ->
      Obs.Metric.incr c_decode_errors;
      { client = None; keys = oracle req }

(* A client's requests must never execute concurrently with each other
   (the in-execute duplicate check is only deterministic when a client's
   requests are totally ordered): as a key, the client's order is one
   more conflict. *)
let with_session ~obs ~subsystem ~node oracle =
  let claim = claim ~obs ~subsystem ~node oracle in
  fun req ->
    match claim req with
    | { client = Some c; keys } -> session_key c :: keys
    | { client = None; keys } -> keys
