type handler = src:int -> string -> unit

type link_counters = {
  l_msgs : Obs.Metric.counter;
  l_bytes : Obs.Metric.counter;
  l_drops : Obs.Metric.counter;
}

(* One record per directed pair, in [links.(src).(dst)].  Its counters are
   registered on the first send, so a pair that is only ever partitioned
   adds nothing to the metrics registry. *)
type link = {
  mutable counters : link_counters option;
  mutable floor : float;  (* FIFO: the last delivery time on this pair *)
  mutable blocked : bool;
}

(* A port name is interned once per process into a dense id, so a send
   finds the port's per-network state by indexing, not by hashing the
   name.  The id only indexes: it reaches no metric, event or draw, so
   the order in which names are first interned changes nothing a
   simulation does. *)
type port = { id : int; name : string }

let interned : (string, port) Hashtbl.t = Hashtbl.create 16
let intern_lock = Mutex.create ()

let port name =
  Mutex.protect intern_lock (fun () ->
      match Hashtbl.find_opt interned name with
      | Some p -> p
      | None ->
        let p = { id = Hashtbl.length interned; name } in
        Hashtbl.replace interned name p;
        p)

(* A port's state on one network, made on first use: its byte counter
   (registered on the first send), its handler per node, and the fiber
   and span name of its deliveries. *)
type endpoint = {
  p_name : string;
  p_fiber : string;
  mutable p_bytes : Obs.Metric.counter option;
  mutable p_handlers : handler option array;
}

type t = {
  eng : Engine.t;
  rng : Rng.t;
  base_latency : float;
  mutable latency_factor : float;
  mutable drop_probability : float;
  c_msgs : Obs.Metric.counter;
  c_bytes : Obs.Metric.counter;
  c_drops : Obs.Metric.counter;
  mutable links : link array array;
  mutable endpoints : endpoint option array;  (* by port id *)
}

(* Mean of the exponential jitter added to every delivery. *)
let jitter_mean = 20e-6

let create ?(base_latency = 50e-6) eng =
  let obs = Engine.obs eng in
  {
    eng;
    rng = Rng.split (Engine.rng eng);
    base_latency;
    latency_factor = 1.;
    drop_probability = 0.;
    c_msgs = Obs.counter obs ~subsystem:"net" "messages";
    c_bytes = Obs.counter obs ~subsystem:"net" "bytes";
    c_drops = Obs.counter obs ~subsystem:"net" "drops";
    links = [||];
    endpoints = [||];
  }

let engine t = t.eng

let endpoint t p =
  let n = Array.length t.endpoints in
  if p.id >= n then begin
    let a = Array.make (max (p.id + 1) (2 * n)) None in
    Array.blit t.endpoints 0 a 0 n;
    t.endpoints <- a
  end;
  match Array.unsafe_get t.endpoints p.id with
  | Some e -> e
  | None ->
    let e =
      { p_name = p.name; p_fiber = "net:" ^ p.name; p_bytes = None; p_handlers = [||] }
    in
    t.endpoints.(p.id) <- Some e;
    e

let register t ~node ~port h =
  let p = endpoint t port in
  let n = Array.length p.p_handlers in
  if node >= n then begin
    let a = Array.make (max (node + 1) (Engine.num_nodes t.eng)) None in
    Array.blit p.p_handlers 0 a 0 n;
    p.p_handlers <- a
  end;
  p.p_handlers.(node) <- Some h

let set_drop_probability t p = t.drop_probability <- p

let set_latency_factor t f =
  if f <= 0. then invalid_arg "Net.set_latency_factor";
  t.latency_factor <- f

let latency_factor t = t.latency_factor

(* The node set can grow at runtime ([Engine.add_node]): the link matrix
   grows on first use of a new id. *)
let link t ~src ~dst =
  let n = Array.length t.links in
  if src >= n || dst >= n then begin
    let m = max (max src dst + 1) (Engine.num_nodes t.eng) in
    t.links <-
      Array.init m (fun s ->
          Array.init m (fun d ->
              if s < n && d < n then t.links.(s).(d)
              else { counters = None; floor = 0.; blocked = false }))
  end;
  t.links.(src).(dst)

let link_counters t ~src ~dst l =
  match l.counters with
  | Some c -> c
  | None ->
    let obs = Engine.obs t.eng in
    let labels = [ ("src", string_of_int src); ("dst", string_of_int dst) ] in
    let c =
      {
        l_msgs = Obs.counter obs ~subsystem:"net" ~labels "link_messages";
        l_bytes = Obs.counter obs ~subsystem:"net" ~labels "link_bytes";
        l_drops = Obs.counter obs ~subsystem:"net" ~labels "link_drops";
      }
    in
    l.counters <- Some c;
    c

let port_counter t p =
  match p.p_bytes with
  | Some c -> c
  | None ->
    let c =
      Obs.counter (Engine.obs t.eng) ~subsystem:"net" ~labels:[ ("port", p.p_name) ]
        "port_bytes"
    in
    p.p_bytes <- Some c;
    c

let set_blocked t a b v =
  (link t ~src:a ~dst:b).blocked <- v;
  (link t ~src:b ~dst:a).blocked <- v

let partition t a b = set_blocked t a b true
let heal t a b = set_blocked t a b false
let heal_all t = Array.iter (Array.iter (fun l -> l.blocked <- false)) t.links
let messages_sent t = Obs.Metric.value t.c_msgs
let bytes_sent t = Obs.Metric.value t.c_bytes
let messages_dropped t = Obs.Metric.value t.c_drops

(* A message to a node the engine does not have yet is dropped, like one
   to a node with no handler. *)
let deliver t ~src ~dst p ~sent payload =
  if
    dst < Array.length p.p_handlers
    && dst < Engine.num_nodes t.eng
    && Engine.node_alive t.eng dst
  then
    match p.p_handlers.(dst) with
    | None -> ()
    | Some h ->
      let sp = Obs.spans (Engine.obs t.eng) in
      (* Delivery runs at exactly its scheduled arrival time. *)
      if Obs.Span.enabled sp then
        Obs.Span.complete sp ~cat:"net" ~pid:dst ~name:p.p_fiber ~ts:sent
          ~dur:(Engine.clock t.eng -. sent) ();
      Engine.spawn_immediate t.eng ~node:dst ~name:p.p_fiber (fun () -> h ~src payload)

let send t ~src ~dst ~port payload =
  let len = String.length payload in
  let l = link t ~src ~dst in
  let c = link_counters t ~src ~dst l in
  let p = endpoint t port in
  Obs.Metric.incr t.c_msgs;
  Obs.Metric.add t.c_bytes len;
  Obs.Metric.incr c.l_msgs;
  Obs.Metric.add c.l_bytes len;
  Obs.Metric.add (port_counter t p) len;
  let dropped =
    l.blocked || (t.drop_probability > 0. && Rng.float t.rng 1.0 < t.drop_probability)
  in
  if dropped then begin
    Obs.Metric.incr t.c_drops;
    Obs.Metric.incr c.l_drops
  end
  else begin
    let latency =
      t.latency_factor
      *. (t.base_latency +. Rng.exponential t.rng ~mean:jitter_mean)
    in
    let sent = Engine.clock t.eng in
    (* FIFO per directed pair: never deliver before an earlier message. *)
    let at = Float.max (sent +. latency) (l.floor +. 1e-12) in
    l.floor <- at;
    Engine.schedule t.eng ~at (fun () -> deliver t ~src ~dst p ~sent payload)
  end
