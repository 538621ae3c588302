(* CBASE-style conflict DAG ("Rethinking State-Machine Replication for
   Parallelism", Marandi et al.): committed requests are inserted in log
   order; a request depends on the latest earlier uncompleted request
   claiming any of its conflict keys.  Chaining through per-key tails is
   enough — any two requests sharing a key sit on that key's chain, so
   transitivity gives the full conflict order.  Completed nodes are
   trimmed immediately: the resident graph is O(in-flight requests). *)

type 'a node = {
  id : int;
  keys : string list;
  payload : 'a;
  mutable deps : int;  (* uncompleted predecessors *)
  mutable succs : 'a node list;
  mutable state : [ `Waiting | `Ready | `Running | `Done ];
}

type 'a t = {
  mutable next_id : int;
  tails : (string, 'a node) Hashtbl.t;  (* per-key last inserted, live *)
  key_live : (string, int) Hashtbl.t;  (* uncompleted claims per key *)
  live : (int, 'a node) Hashtbl.t;  (* uncompleted nodes, for barriers *)
  ready : 'a node Queue.t;  (* FIFO among ready, in insertion order *)
  mutable barrier_tail : 'a node option;
  mutable n_ready : int;
}

let create () =
  {
    next_id = 0;
    tails = Hashtbl.create 64;
    key_live = Hashtbl.create 64;
    live = Hashtbl.create 64;
    ready = Queue.create ();
    barrier_tail = None;
    n_ready = 0;
  }

let payload n = n.payload
let size t = Hashtbl.length t.live
let ready_width t = t.n_ready

let mark_ready t n =
  n.state <- `Ready;
  Queue.push n t.ready;
  t.n_ready <- t.n_ready + 1

(* Add an edge [pred -> n] unless pred is done or already counted.
   Predecessor lists are tiny (one candidate per key), so the linear
   [succs] membership scan via [seen] stays cheap. *)
let add_dep seen n pred =
  if pred.state <> `Done && pred.id <> n.id && not (List.memq pred !seen)
  then begin
    seen := pred :: !seen;
    pred.succs <- n :: pred.succs;
    n.deps <- n.deps + 1
  end

let fresh t keys payload =
  let n =
    { id = t.next_id; keys; payload; deps = 0; succs = []; state = `Waiting }
  in
  t.next_id <- t.next_id + 1;
  Hashtbl.replace t.live n.id n;
  n

let insert t ~keys payload =
  let n = fresh t keys payload in
  let seen = ref [] in
  (match t.barrier_tail with
  | Some b -> add_dep seen n b
  | None -> ());
  List.iter
    (fun k ->
      (match Hashtbl.find_opt t.tails k with
      | Some tail -> add_dep seen n tail
      | None -> ());
      Hashtbl.replace t.tails k n;
      Hashtbl.replace t.key_live k
        (1 + Option.value (Hashtbl.find_opt t.key_live k) ~default:0))
    keys;
  if n.deps = 0 then mark_ready t n;
  n

(* A barrier conflicts with everything: it runs only after every earlier
   uncompleted node, and every later insert depends on it (directly via
   [barrier_tail]; per-key tails keep working across it because a
   later same-key node orders behind both its key tail and the
   barrier). *)
let insert_barrier t payload =
  let n = fresh t [] payload in
  (* [live] holds each uncompleted node once, so no duplicate scan: a
     replayed log can put a whole log's nodes in the graph at once. *)
  Hashtbl.iter
    (fun _ pred ->
      if pred != n then begin
        pred.succs <- n :: pred.succs;
        n.deps <- n.deps + 1
      end)
    t.live;
  t.barrier_tail <- Some n;
  if n.deps = 0 then mark_ready t n;
  n

let take_ready t =
  match Queue.take_opt t.ready with
  | None -> None
  | Some n ->
    t.n_ready <- t.n_ready - 1;
    n.state <- `Running;
    Some n

let complete t n =
  if n.state = `Done then invalid_arg "Dag.complete: node already completed";
  n.state <- `Done;
  Hashtbl.remove t.live n.id;
  List.iter
    (fun k ->
      (match Hashtbl.find_opt t.tails k with
      | Some tail when tail == n -> Hashtbl.remove t.tails k
      | Some _ | None -> ());
      match Hashtbl.find_opt t.key_live k with
      | Some 1 -> Hashtbl.remove t.key_live k
      | Some c -> Hashtbl.replace t.key_live k (c - 1)
      | None -> ())
    n.keys;
  (match t.barrier_tail with
  | Some b when b == n -> t.barrier_tail <- None
  | Some _ | None -> ());
  let newly_ready =
    List.filter
      (fun s ->
        s.deps <- s.deps - 1;
        s.deps = 0 && s.state = `Waiting)
      n.succs
  in
  n.succs <- [];
  (* succs accumulated in reverse insertion order: restore log order so
     the ready queue stays FIFO-by-insertion among equals *)
  let newly_ready = List.sort (fun a b -> compare a.id b.id) newly_ready in
  List.iter (mark_ready t) newly_ready

let busy t keys =
  t.barrier_tail <> None
  || List.exists (fun k -> Hashtbl.mem t.key_live k) keys

let idle t = Hashtbl.length t.live = 0
