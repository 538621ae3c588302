module F = Rex_core.Frontend

type fate = Returned of string | Timed_out | Resolved of string

type entry = {
  id : int;
  client : int;
  request : string;
  invoke : float;
  return_ : float;
  fate : fate;
}

type stats = {
  ops : int;
  completed : int;
  timeouts : int;
  resolved : int;
  double_commits : int;
}

type cell = {
  c_id : int;
  c_client : int;
  c_request : string;
  c_invoke : float;
  mutable c_return : float;  (* nan while pending *)
  mutable c_resp : string option;  (* what the client saw *)
}

type t = {
  eng : Sim.Engine.t;
  cells : (int, cell) Hashtbl.t;  (* id -> cell, ids dense from 0 *)
  mutable n : int;
  (* payload -> (first committed response, number of commits observed) *)
  commits : (string, string * int) Hashtbl.t;
  (* payloads answered from a reply cache: proof of an earlier commit *)
  dups : (string, string) Hashtbl.t;
  (* payload -> Busy rejections seen at the frontend *)
  rejects : (string, int) Hashtbl.t;
  resolved_cells : (int, string) Hashtbl.t;
  rejected : string -> bool;
}

let create ?(rejected = fun _ -> false) eng =
  {
    eng;
    rejected;
    cells = Hashtbl.create 256;
    n = 0;
    commits = Hashtbl.create 256;
    dups = Hashtbl.create 64;
    rejects = Hashtbl.create 64;
    resolved_cells = Hashtbl.create 16;
  }

let tap t = function
  | F.Tap_commit { response; _ } | F.Tap_dup { response; _ }
    when t.rejected response ->
    (* the attempt was turned away and touched no state *)
    ()
  | F.Tap_commit { payload; response; _ } ->
    (match Hashtbl.find_opt t.commits payload with
    | None -> Hashtbl.replace t.commits payload (response, 1)
    | Some (first, k) -> Hashtbl.replace t.commits payload (first, k + 1))
  | F.Tap_dup { payload; response; _ } ->
    if not (Hashtbl.mem t.dups payload) then
      Hashtbl.replace t.dups payload response
  | F.Tap_reject { payload; _ } ->
    Hashtbl.replace t.rejects payload
      (1 + Option.value ~default:0 (Hashtbl.find_opt t.rejects payload))
  | F.Tap_enqueue _ | F.Tap_drop _ -> ()

let wire t fronts =
  List.iter (fun f -> F.set_tap f (Some (fun ev -> tap t ev))) fronts

let invoke t ~client ~request =
  let id = t.n in
  t.n <- id + 1;
  Hashtbl.replace t.cells id
    {
      c_id = id;
      c_client = client;
      c_request = request;
      c_invoke = Sim.Engine.clock t.eng;
      c_return = Float.nan;
      c_resp = None;
    };
  id

let finish t id resp =
  match Hashtbl.find_opt t.cells id with
  | None -> invalid_arg "History.finish: unknown op"
  | Some c ->
    c.c_return <- Sim.Engine.clock t.eng;
    c.c_resp <- resp

let record t ~client ~request f =
  let id = invoke t ~client ~request in
  let resp = f () in
  finish t id resp;
  resp

let iter_cells t f =
  for id = 0 to t.n - 1 do
    f (Hashtbl.find t.cells id)
  done

(* Payloads a single logical op used.  Only their taps speak for one
   op: a repeated payload ([GET k], [DEL k]) commits once per use. *)
let unique_payloads t =
  let uses = Hashtbl.create 256 in
  iter_cells t (fun c ->
      let k = c.c_request in
      Hashtbl.replace uses k
        (1 + Option.value ~default:0 (Hashtbl.find_opt uses k)));
  fun payload -> Hashtbl.find_opt uses payload = Some 1

let resolve t =
  let unique = unique_payloads t in
  iter_cells t (fun c ->
      if c.c_resp = None && not (Hashtbl.mem t.resolved_cells c.c_id) then
        if unique c.c_request then begin
          match Hashtbl.find_opt t.commits c.c_request with
          | Some (resp, _) -> Hashtbl.replace t.resolved_cells c.c_id resp
          | None -> (
            match Hashtbl.find_opt t.dups c.c_request with
            | Some resp -> Hashtbl.replace t.resolved_cells c.c_id resp
            | None -> ())
        end)

let entry_of t c =
  let pending = Float.is_nan c.c_return in
  let return_ = if pending then Float.infinity else c.c_return in
  let fate =
    match c.c_resp with
    | Some r -> Returned r
    | None -> (
      match Hashtbl.find_opt t.resolved_cells c.c_id with
      | Some r -> Resolved r
      | None -> Timed_out)
  in
  { id = c.c_id; client = c.c_client; request = c.c_request;
    invoke = c.c_invoke; return_; fate }

let entries t = List.init t.n (fun id -> entry_of t (Hashtbl.find t.cells id))

let stats t =
  let completed = ref 0 and timeouts = ref 0 and resolved = ref 0 in
  iter_cells t (fun c ->
      match (entry_of t c).fate with
      | Returned _ -> incr completed
      | Resolved _ -> incr resolved
      | Timed_out -> incr timeouts);
  let unique = unique_payloads t in
  let doubles =
    Hashtbl.fold
      (fun payload (_, k) acc ->
        if unique payload then acc + max 0 (k - 1) else acc)
      t.commits 0
  in
  {
    ops = t.n;
    completed = !completed;
    timeouts = !timeouts;
    resolved = !resolved;
    double_commits = doubles;
  }

let to_lines t =
  List.map
    (fun e ->
      let fate =
        match e.fate with
        | Returned r -> Printf.sprintf "ok %S" r
        | Resolved r -> Printf.sprintf "exec %S" r
        | Timed_out -> "timeout"
      in
      Printf.sprintf "%04d c%d [%.9f, %.9f] %S -> %s" e.id e.client e.invoke
        e.return_ e.request fate)
    (entries t)
