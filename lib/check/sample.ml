module F = Rex_core.Frontend

type violation = { v_key : string; v_kind : string; v_detail : string }

type stats = {
  seen_keys : int;
  tracked_keys : int;
  evicted_keys : int;
  recorded_ops : int;
  skipped_ops : int;
  dropped_ambiguous_reads : int;
  rejected_ops : int;
  windows : int;
  resets : int;
  max_live_ops : int;
  commits_seen : int;
  double_commits : int;
  limited : bool;
}

type cell = {
  cl_id : int;
  cl_client : int;
  cl_key : string;
  cl_req : string;
  cl_inv : float;
  mutable cl_commits : int;
  mutable cl_resp : string option;  (* first committed response seen *)
}

type kt = {
  mutable k_cset : Window.cset;
  mutable k_buf : Window.op list;  (* reversed *)
  mutable k_nbuf : int;
  mutable k_inflight : int;
}

(* Terminally shed payloads watched for the must-never-commit invariant;
   beyond this the set stops growing (accounting turns best-effort). *)
let reject_watch_cap = 1 lsl 16

type t = {
  spec : Spec.t;
  rng : Sim.Rng.t;
  keys_cap : int;
  window_cap : int;
  max_steps : int option;
  max_configs : int option;
  mu : Mutex.t;
  tracked : (string, kt) Hashtbl.t;
  slots : string array;  (* reservoir: slot -> tracked key *)
  decided : (string, unit) Hashtbl.t;  (* every distinct key seen *)
  cells : (int, cell) Hashtbl.t;  (* in-flight ops *)
  live : (string, int) Hashtbl.t;  (* payload -> live cell id *)
  rejected : (string, unit) Hashtbl.t;
  mutable next_id : int;
  mutable violations : violation list;
  mutable seen_keys : int;
  mutable evicted : int;
  mutable recorded : int;
  mutable skipped : int;
  mutable dropped_reads : int;
  mutable rejected_n : int;
  mutable windows : int;
  mutable resets : int;
  mutable live_n : int;  (* in-flight cells + buffered ops *)
  mutable live_hw : int;
  mutable commits : int;
  mutable doubles : int;
  mutable limited : bool;
}

let create ?(keys_cap = 64) ?(window_cap = 512) ?max_steps ?max_configs
    ~seed (spec : Spec.t) =
  if keys_cap < 1 then invalid_arg "Sample.create: keys_cap < 1";
  if window_cap < 2 then invalid_arg "Sample.create: window_cap < 2";
  {
    spec;
    rng = Sim.Rng.create seed;
    keys_cap;
    window_cap;
    max_steps;
    max_configs;
    mu = Mutex.create ();
    tracked = Hashtbl.create (2 * keys_cap);
    slots = Array.make keys_cap "";
    decided = Hashtbl.create 256;
    cells = Hashtbl.create 1024;
    live = Hashtbl.create 1024;
    rejected = Hashtbl.create 256;
    next_id = 0;
    violations = [];
    seen_keys = 0;
    evicted = 0;
    recorded = 0;
    skipped = 0;
    dropped_reads = 0;
    rejected_n = 0;
    windows = 0;
    resets = 0;
    live_n = 0;
    live_hw = 0;
    commits = 0;
    doubles = 0;
    limited = false;
  }

let with_lock t f =
  Mutex.lock t.mu;
  match f () with
  | v ->
    Mutex.unlock t.mu;
    v
  | exception e ->
    Mutex.unlock t.mu;
    raise e

let violate t ~key ~kind ~detail =
  t.violations <- { v_key = key; v_kind = kind; v_detail = detail } :: t.violations

let key_of t req = Option.value (t.spec.Spec.key_of req) ~default:""

let fresh_kt t = {
  k_cset = Window.make t.spec;
  k_buf = [];
  k_nbuf = 0;
  k_inflight = 0;
}

(* Reservoir decision, made exactly once per distinct key, at its first
   occurrence (Algorithm R over the key stream): tracked keys therefore
   have complete histories from a known initial state. *)
let tracked_kt t key =
  match Hashtbl.find_opt t.tracked key with
  | Some kt -> Some kt
  | None ->
    if Hashtbl.mem t.decided key then None
    else begin
      Hashtbl.replace t.decided key ();
      t.seen_keys <- t.seen_keys + 1;
      let ntracked = Hashtbl.length t.tracked in
      let slot =
        if ntracked < t.keys_cap then Some ntracked
        else begin
          let j = Sim.Rng.int t.rng t.seen_keys in
          if j < t.keys_cap then Some j else None
        end
      in
      match slot with
      | None -> None
      | Some j ->
        (match Hashtbl.find_opt t.tracked t.slots.(j) with
        | Some old ->
          (* Evict: the displaced key's pending work is discarded. *)
          t.skipped <- t.skipped + old.k_nbuf;
          t.live_n <- t.live_n - old.k_nbuf;
          Hashtbl.remove t.tracked t.slots.(j);
          t.evicted <- t.evicted + 1
        | None -> ());
        t.slots.(j) <- key;
        let kt = fresh_kt t in
        Hashtbl.replace t.tracked key kt;
        Some kt
    end

let reanchor t kt =
  kt.k_cset <- Window.make ~bot:true t.spec;
  t.skipped <- t.skipped + kt.k_nbuf;
  t.live_n <- t.live_n - kt.k_nbuf;
  kt.k_buf <- [];
  kt.k_nbuf <- 0

let flush t key kt =
  if kt.k_nbuf > 0 then begin
    let w = Array.of_list (List.rev kt.k_buf) in
    t.live_n <- t.live_n - kt.k_nbuf;
    kt.k_buf <- [];
    kt.k_nbuf <- 0;
    match
      Window.advance ?max_steps:t.max_steps ?max_configs:t.max_configs
        t.spec kt.k_cset w
    with
    | Ok cs ->
      kt.k_cset <- cs;
      t.windows <- t.windows + 1
    | Error (Window.Nonlin msg) ->
      violate t ~key ~kind:"non-linearizable" ~detail:msg;
      kt.k_cset <- Window.make ~bot:true t.spec
    | Error (Window.Limit _) ->
      t.limited <- true;
      kt.k_cset <- Window.make ~bot:true t.spec
  end

let maybe_flush t key kt =
  if kt.k_inflight = 0 && kt.k_nbuf > 0 then flush t key kt
  else if kt.k_nbuf >= t.window_cap then begin
    (* The key refuses to quiesce: bound memory by re-anchoring at ⊥. *)
    reanchor t kt;
    t.resets <- t.resets + 1
  end

let bump_live t =
  t.live_n <- t.live_n + 1;
  if t.live_n > t.live_hw then t.live_hw <- t.live_n

let invoke t ~now ~client ~request =
  with_lock t (fun () ->
      match t.spec.Spec.apply t.spec.Spec.init request with
      | None ->
        t.skipped <- t.skipped + 1;
        -1
      | Some _ -> (
        let key = key_of t request in
        match tracked_kt t key with
        | None ->
          t.skipped <- t.skipped + 1;
          -1
        | Some kt ->
          let id = t.next_id in
          t.next_id <- id + 1;
          Hashtbl.replace t.cells id
            {
              cl_id = id;
              cl_client = client;
              cl_key = key;
              cl_req = request;
              cl_inv = now;
              cl_commits = 0;
              cl_resp = None;
            };
          Hashtbl.replace t.live request id;
          kt.k_inflight <- kt.k_inflight + 1;
          t.recorded <- t.recorded + 1;
          bump_live t;
          id))

let drop_cell t (c : cell) =
  Hashtbl.remove t.cells c.cl_id;
  (match Hashtbl.find_opt t.live c.cl_req with
  | Some id when id = c.cl_id -> Hashtbl.remove t.live c.cl_req
  | _ -> ());
  t.live_n <- t.live_n - 1

(* Turn a completed (or abandoned) cell into a Window op; None when the
   op imposes no constraint (ambiguous read). *)
let op_of t (c : cell) resp ~now =
  match resp with
  | Some r ->
    Some
      { Window.o_req = c.cl_req; o_resp = Some r; o_must = true;
        o_inv = c.cl_inv; o_ret = now }
  | None ->
    if t.spec.Spec.is_read c.cl_req then begin
      t.dropped_reads <- t.dropped_reads + 1;
      None
    end
    else if c.cl_commits > 0 then
      (* A tap saw it execute: committed, response never delivered. *)
      Some
        { Window.o_req = c.cl_req; o_resp = c.cl_resp; o_must = true;
          o_inv = c.cl_inv; o_ret = Float.infinity }
    else
      Some
        { Window.o_req = c.cl_req; o_resp = None; o_must = false;
          o_inv = c.cl_inv; o_ret = Float.infinity }

let settle t (c : cell) resp ~now =
  drop_cell t c;
  match Hashtbl.find_opt t.tracked c.cl_key with
  | None -> t.skipped <- t.skipped + 1  (* evicted while in flight *)
  | Some kt ->
    kt.k_inflight <- kt.k_inflight - 1;
    (match op_of t c resp ~now with
    | None -> ()
    | Some op ->
      kt.k_buf <- op :: kt.k_buf;
      kt.k_nbuf <- kt.k_nbuf + 1;
      bump_live t);
    maybe_flush t c.cl_key kt

let finish t ~now id resp =
  if id >= 0 then
    with_lock t (fun () ->
        match Hashtbl.find_opt t.cells id with
        | None -> ()
        | Some c -> settle t c resp ~now)

let reject t ~now:_ id =
  with_lock t (fun () ->
      t.rejected_n <- t.rejected_n + 1;
      if id >= 0 then
        match Hashtbl.find_opt t.cells id with
        | None -> ()
        | Some c ->
          drop_cell t c;
          (match Hashtbl.find_opt t.tracked c.cl_key with
          | Some kt -> kt.k_inflight <- kt.k_inflight - 1
          | None -> ());
          if c.cl_commits > 0 then
            violate t ~key:c.cl_key ~kind:"rejected-op-committed"
              ~detail:c.cl_req
          else if Hashtbl.length t.rejected < reject_watch_cap then
            Hashtbl.replace t.rejected c.cl_req ())

let tap t ev =
  with_lock t (fun () ->
      match ev with
      | F.Tap_commit { payload; response; _ } ->
        if Hashtbl.mem t.tracked (key_of t payload) then begin
          t.commits <- t.commits + 1;
          match Hashtbl.find_opt t.live payload with
          | Some id ->
            let c = Hashtbl.find t.cells id in
            c.cl_commits <- c.cl_commits + 1;
            if c.cl_resp = None then c.cl_resp <- Some response;
            if c.cl_commits = 2 then begin
              t.doubles <- t.doubles + 1;
              violate t ~key:c.cl_key ~kind:"double-commit" ~detail:payload
            end
          | None ->
            if Hashtbl.mem t.rejected payload then
              violate t ~key:(key_of t payload) ~kind:"rejected-op-committed"
                ~detail:payload
        end
      | F.Tap_dup { payload; response; _ } -> (
        (* Reply-cache hit: proof of one earlier commit, not a double. *)
        match Hashtbl.find_opt t.live payload with
        | Some id ->
          let c = Hashtbl.find t.cells id in
          if c.cl_resp = None then c.cl_resp <- Some response;
          if c.cl_commits = 0 then c.cl_commits <- 1
        | None -> ())
      | F.Tap_enqueue _ | F.Tap_drop _ | F.Tap_reject _ -> ())

let wire t fronts =
  List.iter (fun f -> F.set_tap f (Some (fun ev -> tap t ev))) fronts

let finalize t =
  with_lock t (fun () ->
      (* Abandon every still-in-flight op: the run was cut off while the
         client waited, which is the ambiguous (or commit-resolved)
         fate. *)
      let pending = Hashtbl.fold (fun _ c acc -> c :: acc) t.cells [] in
      let pending =
        List.sort (fun a b -> compare a.cl_id b.cl_id) pending
      in
      List.iter
        (fun c ->
          drop_cell t c;
          match Hashtbl.find_opt t.tracked c.cl_key with
          | None -> t.skipped <- t.skipped + 1
          | Some kt ->
            kt.k_inflight <- kt.k_inflight - 1;
            (match op_of t c None ~now:Float.infinity with
            | None -> ()
            | Some op ->
              kt.k_buf <- op :: kt.k_buf;
              kt.k_nbuf <- kt.k_nbuf + 1;
              bump_live t))
        pending;
      let keys =
        Hashtbl.fold (fun k _ acc -> k :: acc) t.tracked []
        |> List.sort compare
      in
      List.iter
        (fun key ->
          let kt = Hashtbl.find t.tracked key in
          flush t key kt;
          match Window.close kt.k_cset with
          | Ok () -> ()
          | Error (Window.Nonlin msg) ->
            violate t ~key ~kind:"unresolved-commit" ~detail:msg
          | Error (Window.Limit _) -> t.limited <- true)
        keys)

let violations t = with_lock t (fun () -> List.rev t.violations)
let ok t = with_lock t (fun () -> t.violations = [] && not t.limited)

let stats t =
  with_lock t (fun () ->
      {
        seen_keys = t.seen_keys;
        tracked_keys = Hashtbl.length t.tracked;
        evicted_keys = t.evicted;
        recorded_ops = t.recorded;
        skipped_ops = t.skipped;
        dropped_ambiguous_reads = t.dropped_reads;
        rejected_ops = t.rejected_n;
        windows = t.windows;
        resets = t.resets;
        max_live_ops = t.live_hw;
        commits_seen = t.commits;
        double_commits = t.doubles;
        limited = t.limited;
      })

let pp_stats ppf s =
  Format.fprintf ppf
    "%d/%d keys tracked (%d evicted), %d ops recorded (%d skipped, %d \
     ambiguous reads, %d rejected), %d windows (%d resets), live high-water \
     %d, %d commits (%d doubles)%s"
    s.tracked_keys s.seen_keys s.evicted_keys s.recorded_ops s.skipped_ops
    s.dropped_ambiguous_reads s.rejected_ops s.windows s.resets
    s.max_live_ops s.commits_seen s.double_commits
    (if s.limited then " [LIMITED]" else "")
