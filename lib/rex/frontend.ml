open Sim

type backend = {
  is_leader : unit -> bool;
  leader_hint : unit -> int option;
  enqueue : string -> (string option -> unit) -> unit;
}

type reads = {
  r_peers : unit -> int list;
      (* read per probe: membership changes under reconfiguration *)
  r_lease_valid : unit -> bool;
  r_read_index : unit -> int;
  r_applied_upto : unit -> int;
  r_read_local : string -> (string option -> unit) -> unit;
  r_lease_unsafe : bool;
}

(* How long a quorum read waits for probe replies, and then for the local
   executor to reach the probed index, before falling back to the ordered
   path.  Both are generous against the ms-scale protocol timers. *)
let probe_timeout = 0.05
let apply_wait = 0.1

type tap_event =
  | Tap_enqueue of { client : int; seq : int; payload : string }
  | Tap_commit of { client : int; seq : int; payload : string; response : string }
  | Tap_dup of { client : int; seq : int; payload : string; response : string }
  | Tap_drop of { client : int; seq : int }
  | Tap_reject of { client : int; seq : int; payload : string }

type admission = {
  a_max_global : int;
  a_max_per_client : int;
  a_queue_depth : unit -> int;
  a_queue_soft : int;
  a_queue_hard : int;
}

(* How long an intake handler sleeps while the run queue is at or above
   the soft bound. *)
let soft_delay = 2e-3

let admission ?(max_global = 0) ?(max_per_client = 0) ?(queue_soft = 0)
    ?(queue_hard = 0) ~queue_depth () =
  if max_global < 0 || max_per_client < 0 || queue_soft < 0 || queue_hard < 0
  then invalid_arg "Frontend.admission: negative bound";
  if queue_hard > 0 && queue_soft > queue_hard then
    invalid_arg "Frontend.admission: queue_soft > queue_hard";
  {
    a_max_global = max_global;
    a_max_per_client = max_per_client;
    a_queue_depth = queue_depth;
    a_queue_soft = queue_soft;
    a_queue_hard = queue_hard;
  }

type t = { node : int; mutable tap : (tap_event -> unit) option }

let set_tap t tap = t.tap <- tap
let node t = t.node

(* Ask every peer for its read index; return the max over a majority
   (counting our own), or None when no majority answered in time.  A
   committed write was accepted by a majority of replicas, so any probe
   majority intersects it: the returned index upper-bounds every write
   acknowledged before the probes were sent. *)
let quorum_read_index rpc ~node reads =
  let eng = Net.engine (Rpc.net rpc) in
  let members = reads.r_peers () in
  let peers = List.filter (fun p -> p <> node) members in
  let majority = (List.length members / 2) + 1 in
  let best = ref (reads.r_read_index ()) in
  let got = ref 1 in
  let done_ = ref 1 in
  let waiters = ref [] in
  let wake_all () =
    let ws = !waiters in
    waiters := [];
    List.iter Engine.wake ws
  in
  List.iter
    (fun p ->
      ignore
        (Engine.spawn eng ~node ~name:"frontend.read_probe" (fun () ->
             (match
                Rpc.call rpc ~src:node ~dst:p ~port:Client.read_port
                  ~timeout:probe_timeout ""
              with
             | Some payload -> (
               match Codec.decode Codec.read_uvarint payload with
               | idx ->
                 incr got;
                 if idx > !best then best := idx
               | exception Codec.Decode_error _ -> ())
             | None -> ());
             incr done_;
             wake_all ())))
    peers;
  let n = List.length members in
  let rec await () =
    if !got >= majority then Some !best
    else if !done_ >= n then None
    else begin
      Engine.park (fun w -> waiters := w :: !waiters);
      await ()
    end
  in
  await ()

let register rpc ~node ~table ?admission:adm ~reads:r backend =
  let t = { node; tap = None } in
  let tap ev = match t.tap with None -> () | Some f -> f ev in
  (* Logical requests currently in flight: from enqueue until the
     backend's commit/drop callback.  A retry that lands here joins the
     original instead of consulting the reply cache — the cache may hold
     a speculative (executed but uncommitted) reply that must not be
     released yet. *)
  let inflight : (int * int, (string option -> unit) list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  (* Per-client inflight counts, maintained only when admission control is
     on.  Logical requests, not RPCs: joiners and cache hits are free. *)
  let client_load : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let load_of client =
    Option.value (Hashtbl.find_opt client_load client) ~default:0
  in
  let obs = Engine.obs (Net.engine (Rpc.net rpc)) in
  let alabels = [ ("node", string_of_int node) ] in
  let actr name = Obs.counter obs ~subsystem:"frontend" ~labels:alabels name in
  let c_admitted = actr "admitted"
  and c_rej_queue = actr "adm_reject_queue"
  and c_rej_global = actr "adm_reject_global"
  and c_rej_client = actr "adm_reject_client"
  and c_backpressure = actr "backpressure_delays" in
  let g_inflight = Obs.gauge obs ~subsystem:"frontend" ~labels:alabels "inflight" in
  Rpc.serve_async rpc ~node ~port:Client.client_port
    (fun ~src:_ request ~reply ->
      let answer r = reply (Client.encode_reply r) in
      let finish = function
        | Some resp -> answer (Client.Ok_reply resp)
        | None -> answer Client.Dropped
      in
      (* Soft backpressure first, before any dedup-state reads: the
         handler fiber (and with it the client's RPC) is delayed while the
         run queue is deep, which slows closed-loop clients down without
         rejecting work.  Sleeping *after* the session-table lookup would
         open a duplicate-enqueue race with concurrent retries. *)
      (match adm with
      | Some a
        when a.a_queue_soft > 0 && a.a_queue_depth () >= a.a_queue_soft ->
        Obs.Metric.incr c_backpressure;
        Engine.sleep soft_delay
      | _ -> ());
      if not (backend.is_leader ()) then
        answer (Client.Not_leader (backend.leader_hint ()))
      else
        match Session.Envelope.decode request with
        | exception Codec.Decode_error _ -> answer Client.Dropped
        | None -> backend.enqueue request finish
        | Some { Session.Envelope.client; seq; payload } -> (
          let key = (client, seq) in
          match Hashtbl.find_opt inflight key with
          | Some joiners ->
            Session.Table.note_dup table;
            joiners := finish :: !joiners
          | None -> (
            match Session.Table.lookup table ~client ~seq with
            | Session.Table.Hit resp ->
              Session.Table.note_dup table;
              tap (Tap_dup { client; seq; payload; response = resp });
              answer (Client.Ok_reply resp)
            | Session.Table.Stale ->
              Session.Table.note_dup table;
              tap (Tap_drop { client; seq });
              answer Client.Dropped
            | Session.Table.Miss ->
              (* Hard admission: only *new* logical work is bounded —
                 joins and cache hits above cost nothing and keep the
                 exactly-once contract for already-admitted requests. *)
              let rejected =
                match adm with
                | None -> None
                | Some a ->
                  if a.a_queue_hard > 0 && a.a_queue_depth () >= a.a_queue_hard
                  then Some c_rej_queue
                  else if
                    a.a_max_global > 0
                    && Hashtbl.length inflight >= a.a_max_global
                  then Some c_rej_global
                  else if
                    a.a_max_per_client > 0
                    && load_of client >= a.a_max_per_client
                  then Some c_rej_client
                  else None
              in
              match rejected with
              | Some c ->
                Obs.Metric.incr c;
                tap (Tap_reject { client; seq; payload });
                answer Client.Busy
              | None ->
                let joiners = ref [ finish ] in
                Hashtbl.replace inflight key joiners;
                if Option.is_some adm then
                  Hashtbl.replace client_load client (load_of client + 1);
                Obs.Metric.incr c_admitted;
                Obs.Metric.set g_inflight
                  (float_of_int (Hashtbl.length inflight));
                tap (Tap_enqueue { client; seq; payload });
                backend.enqueue request (fun result ->
                    Hashtbl.remove inflight key;
                    if Option.is_some adm then begin
                      match load_of client - 1 with
                      | n when n <= 0 -> Hashtbl.remove client_load client
                      | n -> Hashtbl.replace client_load client n
                    end;
                    (match result with
                    | Some response ->
                      tap (Tap_commit { client; seq; payload; response })
                    | None -> tap (Tap_drop { client; seq }));
                    List.iter (fun f -> f result) !joiners))));
  let eng = Net.engine (Rpc.net rpc) in
  let labels = [ ("node", string_of_int node) ] in
  let c name = Obs.counter obs ~subsystem:"frontend" ~labels name in
  let c_lease = c "reads_fast_lease" in
  let c_quorum = c "reads_fast_quorum" in
  let c_unsafe = c "reads_unsafe_local" in
  let c_ordered = c "reads_ordered_fallback" in
  let c_rounds = c "quorum_read_rounds" in
  let c_redirect = c "reads_redirected" in
  (* Serve peers' quorum-read probes with our read index. *)
  Rpc.serve rpc ~node ~port:Client.read_port (fun ~src:_ _request ->
      Codec.encode (Fun.flip Codec.write_uvarint) (r.r_read_index ()));
  Rpc.serve_async rpc ~node ~port:Client.query_port
    (fun ~src:_ request ~reply ->
      let answer rep = reply (Client.encode_reply rep) in
      let serve_local counter =
        Obs.Metric.incr counter;
        r.r_read_local request (function
          | Some resp -> answer (Client.Ok_reply resp)
          | None -> answer Client.Dropped)
      in
      let ordered_fallback () =
        if backend.is_leader () then begin
          Obs.Metric.incr c_ordered;
          backend.enqueue request (function
            | Some resp -> answer (Client.Ok_reply resp)
            | None -> answer Client.Dropped)
        end
        else begin
          Obs.Metric.incr c_redirect;
          answer (Client.Not_leader (backend.leader_hint ()))
        end
      in
      if r.r_lease_unsafe && backend.is_leader () then
        (* Canary mode: trust leadership belief alone, no fence. *)
        serve_local c_unsafe
      else if r.r_lease_valid () then serve_local c_lease
      else begin
        (* Quorum read: any replica, leader or not, can serve once its
           local state covers a majority read index. *)
        Obs.Metric.incr c_rounds;
        match quorum_read_index rpc ~node r with
        | None -> ordered_fallback ()
        | Some idx ->
          let deadline = Engine.clock eng +. apply_wait in
          let rec catch_up () =
            if r.r_applied_upto () >= idx then serve_local c_quorum
            else if Engine.clock eng > deadline then ordered_fallback ()
            else begin
              Engine.sleep 1e-3;
              catch_up ()
            end
          in
          catch_up ()
      end);
  t

let encode_batch reqs =
  Codec.encode (fun l b -> Codec.write_list b Codec.write_string l) reqs

let decode_batch v =
  Codec.decode (fun s -> Codec.read_list s Codec.read_string) v

module Flow = struct
  (* The latest report of each secondary, updated in place; [ok] runs on
     every request intake, so it scans these without allocating. *)
  type report = { src : int; mutable count : int; mutable at : float }

  type t = {
    eng : Engine.t;
    window : int;
    staleness : float;
    mutable reports : report array;
    mutable waiters : Engine.waker list;
  }

  let create eng ~window ~staleness =
    { eng; window; staleness; reports = [||]; waiters = [] }

  let wake t =
    let ws = t.waiters in
    t.waiters <- [];
    List.iter Engine.wake ws

  let note t ~src ~count =
    let at = Engine.clock t.eng in
    (match Array.find_opt (fun r -> r.src = src) t.reports with
    | Some r ->
      r.count <- count;
      r.at <- at
    | None -> t.reports <- Array.append t.reports [| { src; count; at } |]);
    wake t

  (* A report is fresh until [stale_at]: at that instant it stops gating,
     so a fiber woken then finds [ok] changed. *)
  let stale_at t r = r.at +. t.staleness

  (* The slowest fresh report bounds how far ahead the primary may run;
     with no fresh report it runs free. *)
  let ok t ~mine =
    let now = Engine.clock t.eng in
    let slow = ref max_int in
    for i = 0 to Array.length t.reports - 1 do
      let r = t.reports.(i) in
      if now < stale_at t r && r.count < !slow then slow := r.count
    done;
    !slow = max_int || mine - !slow <= t.window

  (* Besides a report ([note]), only a report going stale can turn [ok]
     true: wake at the first such instant. *)
  let park t =
    let now = Engine.clock t.eng in
    let next =
      Array.fold_left
        (fun d r -> if now < stale_at t r then Float.min d (stale_at t r) else d)
        infinity t.reports
    in
    Engine.park (fun w ->
        t.waiters <- w :: t.waiters;
        if next < infinity then
          Engine.schedule t.eng ~at:next (fun () -> Engine.wake w))
  let reset t = t.reports <- [||]
end

module Replies = struct
  type entry = {
    id : Event.Id.t;
    t0 : float;
    resp : string;
    cb : string option -> unit;
  }

  type t = { mutable pending : entry list }

  let create () = { pending = [] }

  let add t ~id ~t0 ~resp ~cb =
    t.pending <- { id; t0; resp; cb } :: t.pending

  let release t ~upto =
    let ready, waiting =
      List.partition (fun e -> Trace.Cut.includes upto e.id) t.pending
    in
    t.pending <- waiting;
    List.map (fun e -> (e.t0, e.resp, e.cb)) ready

  let drop t =
    let all = t.pending in
    t.pending <- [];
    List.map (fun e -> (e.t0, e.resp, e.cb)) all

  let length t = List.length t.pending
end
