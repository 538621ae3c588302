(* Open-loop load, owned by the benchmark.

   The arrival schedule comes from Load.Gen (pure and seeded) and is
   pulled to the horizon before the run starts.  Inside the simulation a
   dispatcher fiber sleeps to each exact arrival time and hands the
   arrival to a pool of 64 caller fibers, so no timer structure sits
   between the schedule and the call: the generator's lateness is the
   simulator's wakeup jitter plus any wait for a free caller, and it is
   reported as a metric of its own.

   Every request is timed from its scheduled arrival, and every outcome
   lands in per-request arrays, so percentiles are exact.

   Sessions share what they learn about the leader: a session's Client is
   created with the replica that last answered a write first in its
   replica list, and replaced by such a client when its own guess has
   gone stale.  Without this, every one of thousands of cold sessions
   would pay a 100 ms timeout or a 5 ms Not_leader back-off of its own
   after a failover, and the 64 callers, not the stack, would set the
   outage. *)

open Sim
module R = Rex_core

let callers = 64
let queue_cap = 16_384

(* A client bouncing between followers during an election spends one
   attempt per 5 ms Not_leader back-off; 200 attempts outlast any
   election here, so no request gives up during a failover. *)
let retries = 200

(* Per-request status codes. *)
let pending = 0
let ok = 1
let busy = 2
let gave_up = 3
let error = 4
let shed = 5

let schedule ~seed ~sessions ~rate ~read_ratio ~duration =
  let g =
    Load.Gen.create ~sessions ~duration ~profile:(Load.Arrivals.Steady rate)
      ~keys:Kv.keys ~theta:0.99 ~read_ratio ~seed ()
  in
  let acc = ref [] in
  ignore (Load.Gen.pull g ~until:(duration +. 1.) (fun ev -> acc := ev :: !acc));
  let a = Array.of_list (List.rev !acc) in
  Array.stable_sort (fun (x : Load.Gen.ev) y -> Float.compare x.at y.at) a;
  a

(* A probe's early-stop rule: the run is abandoned at the first point
   where its verdict is already known to be a breach. *)
type limit = { lat : float; max_late : int; max_failed : int }

type t = {
  st : Stack.t;
  evs : Load.Gen.ev array;
  t0 : float;  (* absolute virtual time of schedule time 0 *)
  warm : float;  (* arrivals before [t0 + warm] are warm-up *)
  query_reads : bool;
  limit : limit option;
  started : float array;
  finished : float array;
  status : Bytes.t;
  value : int array;
  queue : int Queue.t;
  mutable idle : Engine.waker list;
  mutable dispatched : int;
  mutable dispatch_done : bool;
  mutable in_flight : int;
  mutable stop : bool;
  mutable breached : bool;
  mutable late : int;
  mutable failed : int;
  mutable leader : int;
  clients : (int, R.Client.t list) Hashtbl.t;  (* idle, per session *)
  spans : Obs.Span.collector;
}

let status t i = Char.code (Bytes.get t.status i)
let set_status t i s = Bytes.set t.status i (Char.chr s)
let measured t i = t.evs.(i).Load.Gen.at >= t.warm
let due t i = t.t0 +. t.evs.(i).Load.Gen.at

(* A session takes an idle client of its own, or a fresh one created
   with the believed leader first.  Half the sessions fall back to the
   followers in the opposite order, so that after a leader crash no
   single follower is every client's next guess.  A client carries one
   call at a time: concurrent calls would share its leader guess, and
   after a crash one call's timeout rotation can keep undoing the
   other's redirect. *)
let take_client t session =
  let fresh () =
    let others = List.filter (fun n -> n <> t.leader) Stack.replicas in
    let others = if session land 1 = 0 then others else List.rev others in
    R.Client.create t.st.Stack.rpc ~me:Stack.client_node ~replicas:(t.leader :: others)
  in
  match Hashtbl.find_opt t.clients session with
  | Some (c :: rest) ->
    Hashtbl.replace t.clients session rest;
    if R.Client.leader_guess c = t.leader then c else fresh ()
  | Some [] | None -> fresh ()

let release_client t session c =
  Hashtbl.replace t.clients session
    (c :: Option.value (Hashtbl.find_opt t.clients session) ~default:[])

let parse resp =
  match int_of_string_opt resp with
  | Some v when v >= 0 -> (ok, v)
  | _ -> (error, -1)

let note_outcome t i =
  match t.limit with
  | Some l when measured t i ->
    let s = status t i in
    if s <> ok then t.failed <- t.failed + 1
    else if t.finished.(i) -. due t i > l.lat then t.late <- t.late + 1;
    if t.failed > l.max_failed || t.late > l.max_late then begin
      t.breached <- true;
      t.stop <- true
    end
  | _ -> ()

let serve t caller i =
  let ev = t.evs.(i) in
  let start = Engine.now () in
  t.started.(i) <- start;
  let cl = take_client t ev.session in
  let uid = R.Client.client_id cl and seq = R.Client.peek_seq cl in
  let s, v =
    if ev.read && t.query_reads then
      match R.Client.query ~retries cl (Kv.get ~key:ev.key) with
      | Some r -> parse r
      | None -> (gave_up, -1)
    else
      let req =
        if ev.read then Kv.get ~key:ev.key
        else Kv.inc ~key:ev.key ~tag:(Printf.sprintf "t%d.%d" ev.session ev.seq)
      in
      match R.Client.call_outcome ~retries cl req with
      | R.Client.Reply r ->
        t.leader <- R.Client.leader_guess cl;
        parse r
      | R.Client.Shed -> (busy, -1)
      | R.Client.Gave_up -> (gave_up, -1)
  in
  release_client t ev.session cl;
  let fin = Engine.now () in
  t.finished.(i) <- fin;
  t.value.(i) <- v;
  set_status t i s;
  if Obs.Span.enabled t.spans then begin
    let id = if ev.read && t.query_reads then Printf.sprintf "%d.r%d" uid i
      else Printf.sprintf "%d.%d" uid seq in
    let args = [ ("id", id) ] in
    let due = due t i in
    Obs.Span.complete t.spans ~cat:"load" ~pid:Stack.client_node ~tid:caller ~args
      ~name:"load.queue" ~ts:due ~dur:(start -. due) ();
    Obs.Span.complete t.spans ~cat:"client" ~pid:Stack.client_node ~tid:caller
      ~args ~name:"client.call" ~ts:start ~dur:(fin -. start) ()
  end;
  note_outcome t i

let rec caller_loop t caller () =
  match Queue.take_opt t.queue with
  | Some i ->
    serve t caller i;
    t.in_flight <- t.in_flight - 1;
    caller_loop t caller ()
  | None ->
    if not t.dispatch_done then begin
      Engine.park (fun w -> t.idle <- w :: t.idle);
      caller_loop t caller ()
    end

let dispatcher t () =
  let n = Array.length t.evs in
  let rec go i =
    if i < n && not t.stop then begin
      let d = due t i -. Engine.now () in
      if d > 0. then Engine.sleep d;
      if Queue.length t.queue >= queue_cap then begin
        set_status t i shed;
        t.finished.(i) <- Engine.now ();
        note_outcome t i
      end
      else begin
        Queue.push i t.queue;
        t.in_flight <- t.in_flight + 1;
        match t.idle with
        | w :: rest ->
          t.idle <- rest;
          Engine.wake w
        | [] -> ()
      end;
      t.dispatched <- i + 1;
      go (i + 1)
    end
  in
  go 0;
  t.dispatch_done <- true;
  List.iter Engine.wake t.idle;
  t.idle <- []

(* Spawn the dispatcher and the callers; arrival 0 is due at [t0]. *)
let start ?limit ~query_reads ~warm ~t0 ~leader (st : Stack.t) evs =
  let n = Array.length evs in
  let t =
    {
      st;
      evs;
      t0;
      warm;
      query_reads;
      limit;
      started = Array.make n nan;
      finished = Array.make n nan;
      status = Bytes.make n (Char.chr pending);
      value = Array.make n (-1);
      queue = Queue.create ();
      idle = [];
      dispatched = 0;
      dispatch_done = false;
      in_flight = 0;
      stop = false;
      breached = false;
      late = 0;
      failed = 0;
      leader;
      clients = Hashtbl.create 4096;
      spans = Obs.spans (Engine.obs st.Stack.eng);
    }
  in
  let node = Stack.client_node in
  ignore (Engine.spawn st.eng ~node ~name:"perf.dispatcher" (dispatcher t));
  for k = 0 to callers - 1 do
    ignore (Engine.spawn st.eng ~node ~name:"perf.caller" (caller_loop t k))
  done;
  t

(* Every dispatched arrival has an outcome. *)
let drained t = t.dispatch_done && t.in_flight = 0
