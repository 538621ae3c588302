module R = Rex_core

(* Key = second whitespace-separated token, which holds for every
   request grammar in lib/apps ("SET <key> ...", "GET <key>",
   "THUMB <img> ...", "RENEW <file>", "WRITE <file> ..."). *)
let default_key_of request =
  match String.index_opt request ' ' with
  | None -> None
  | Some i -> (
    let rest = String.sub request (i + 1) (String.length request - i - 1) in
    match String.index_opt rest ' ' with
    | None -> if rest = "" then None else Some rest
    | Some j -> Some (String.sub rest 0 j))

(* The base app's read/write grammar for migration export/import. *)
let fmt_get key = "GET " ^ key
let fmt_set key value = Printf.sprintf "SET %s %s" key value
let wrong_shard = "ERR:wrong-shard"
let migrating = "ERR:migrating"
let ctl_prefix = "SHARD "

(* --- Wire helpers --- *)

(* Migration entries ride inside request strings, which the key parser
   splits on spaces: hex keeps the blob opaque and space-free. *)
let to_hex s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let of_hex s =
  if String.length s mod 2 <> 0 then None
  else
    try
      Some
        (String.init
           (String.length s / 2)
           (fun i ->
             Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2))))
    with _ -> None

let encode_entries entries =
  let b = Codec.sink () in
  Codec.write_list b
    (fun b (k, v) ->
      Codec.write_string b k;
      Codec.write_string b v)
    entries;
  to_hex (Codec.contents b)

let decode_entries hex =
  match of_hex hex with
  | None -> None
  | Some data -> (
    try
      let s = Codec.source data in
      Some
        (Codec.read_list s (fun s ->
             let k = Codec.read_string s in
             let v = Codec.read_string s in
             (k, v)))
    with Codec.Decode_error _ -> None)

let parse_prepare_reply resp =
  match String.split_on_char ' ' resp with
  | [ "OK"; hex ] -> decode_entries hex
  | [ "OK" ] -> Some []
  | _ -> None

(* Classify a reply for routers: shard redirects carry the responder's
   current (or target) spec so a stale router refreshes in one hop. *)
let classify resp =
  let tail prefix =
    let n = String.length prefix in
    if String.length resp >= n && String.sub resp 0 n = prefix then
      Some
        (if String.length resp > n + 1 && resp.[n] = ' ' then
           Shard_map.decode_spec
             (String.sub resp (n + 1) (String.length resp - n - 1))
         else None)
    else None
  in
  match tail wrong_shard with
  | Some spec -> `Wrong_shard spec
  | None -> (
    match tail migrating with
    | Some spec -> `Migrating spec
    | None -> `App)

(* --- The adapter --- *)

type state = {
  mutable map : Shard_map.t;
  mutable target : Shard_map.t option;
      (* [Some m] between PREPARE and COMMIT on a group that loses keys:
         keys owned here but not under [m] are frozen. *)
  present : (string, unit) Hashtbl.t;
      (* keys this group has seen requests for; the PREPARE dump source.
         May hold extras from rolled-back speculation — harmless, they
         export their default value. *)
}

let factory ~map ~group (base : R.App.factory) : R.App.factory =
 fun api ->
  let app = base api in
  let st = { map; target = None; present = Hashtbl.create 256 } in
  (* One shared lock serializes the wrapper: ownership decisions, map
     transitions and the PREPARE dump must interleave identically under
     record and replay, and the dump additionally needs a quiescent base
     state.  This trades intra-group parallelism for cross-group
     scaling, which is the point of a sharded fleet. *)
  let meta = R.Api.lock api "shard.meta" in
  let obs = Par.Backend.obs (Rexsync.Runtime.backend (R.Api.runtime api)) in
  let labels = [ ("group", string_of_int group) ] in
  let c_misrouted = Obs.counter obs ~subsystem:"shard" ~labels "misrouted" in
  let c_frozen = Obs.counter obs ~subsystem:"shard" ~labels "frozen_rejects" in
  let c_imported = Obs.counter obs ~subsystem:"shard" ~labels "imported_keys" in
  let g_epoch = Obs.gauge obs ~subsystem:"shard" ~labels "epoch" in
  let g_migrating = Obs.gauge obs ~subsystem:"shard" ~labels "migrating" in
  let owned_by m key = Shard_map.group_of m key = group in
  let owned key = owned_by st.map key in
  let frozen key =
    match st.target with
    | Some m -> owned key && not (owned_by m key)
    | None -> false
  in
  let note_gauges () =
    Obs.Metric.set g_epoch (float_of_int (Shard_map.epoch st.map));
    Obs.Metric.set g_migrating (if st.target = None then 0. else 1.)
  in
  note_gauges ();
  let wrong_shard_reply () =
    Obs.Metric.incr c_misrouted;
    wrong_shard ^ " " ^ Shard_map.encode_spec st.map
  in
  let migrating_reply m =
    Obs.Metric.incr c_frozen;
    migrating ^ " " ^ Shard_map.encode_spec m
  in
  (* The PREPARE dump: keys this group owns now but not under [target],
     sorted for determinism, valued from base state.  Requires the meta
     lock (no base execution in flight). *)
  let dump target =
    Hashtbl.fold (fun k () acc -> k :: acc) st.present []
    |> List.filter (fun k -> owned k && not (owned_by target k))
    |> List.sort_uniq compare
    |> List.map (fun k -> (k, app.R.App.query ~request:(fmt_get k)))
  in
  let install m =
    st.map <- m;
    (match st.target with
    | Some tgt when Shard_map.epoch tgt <= Shard_map.epoch m -> st.target <- None
    | Some _ | None -> ());
    (* Forget keys that moved away so later dumps stay bounded. *)
    let stale =
      Hashtbl.fold (fun k () acc -> if owned k then acc else k :: acc) st.present []
    in
    List.iter (Hashtbl.remove st.present) stale;
    note_gauges ()
  in
  let handle_ctl request =
    match String.split_on_char ' ' request with
    | [ "SHARD"; "EPOCH" ] -> "OK " ^ Shard_map.encode_spec st.map
    | [ "SHARD"; "PREPARE"; spec ] -> (
      match Shard_map.decode_spec spec with
      | None -> "ERR:bad-spec"
      | Some m when Shard_map.epoch m <= Shard_map.epoch st.map ->
        "OK" (* this transition already cut over here *)
      | Some m ->
        st.target <- Some m;
        note_gauges ();
        "OK " ^ encode_entries (dump m))
    | [ "SHARD"; "INSTALL"; spec; hex ] -> (
      match (Shard_map.decode_spec spec, decode_entries hex) with
      | None, _ | _, None -> "ERR:bad-spec"
      | Some m, _ when Shard_map.epoch m <= Shard_map.epoch st.map ->
        "OK" (* duplicate cutover *)
      | Some m, Some entries ->
        (* Import first, then switch maps: nothing is served under the
           new map until its keys are in base state. *)
        List.iter
          (fun (k, v) ->
            if owned_by m k then begin
              ignore (app.R.App.execute ~request:(fmt_set k v));
              Hashtbl.replace st.present k ();
              Obs.Metric.incr c_imported
            end)
          entries;
        install m;
        "OK")
    | [ "SHARD"; "COMMIT"; spec ] -> (
      match Shard_map.decode_spec spec with
      | None -> "ERR:bad-spec"
      | Some m when Shard_map.epoch m <= Shard_map.epoch st.map -> "OK"
      | Some m ->
        install m;
        "OK")
    | _ -> "ERR:bad-request"
  in
  let is_ctl request =
    String.length request >= String.length ctl_prefix
    && String.sub request 0 (String.length ctl_prefix) = ctl_prefix
  in
  let execute ~request =
    Rexsync.Lock.lock meta;
    Fun.protect
      ~finally:(fun () -> Rexsync.Lock.unlock meta)
      (fun () ->
        if is_ctl request then handle_ctl request
        else
          match default_key_of request with
          | None -> app.R.App.execute ~request
          | Some key ->
            if not (owned key) then wrong_shard_reply ()
            else if frozen key then migrating_reply (Option.get st.target)
            else begin
              Hashtbl.replace st.present key ();
              app.R.App.execute ~request
            end)
  in
  (* Queries are not replicated, so no lock or [present] tracking: the
     fencing decision only needs an atomic view of the maps, which plain
     OCaml code between effect points already has. *)
  let query ~request =
    if is_ctl request then
      match String.split_on_char ' ' request with
      | [ "SHARD"; "EPOCH" ] -> "OK " ^ Shard_map.encode_spec st.map
      | _ -> "ERR:bad-query"
    else
      match default_key_of request with
      | None -> app.R.App.query ~request
      | Some key ->
        if not (owned key) then wrong_shard_reply ()
        else if frozen key then migrating_reply (Option.get st.target)
        else app.R.App.query ~request
  in
  (* Wrapper state rides in the checkpoint so crash/rejoin and demotion
     rollback restore the shard view in lockstep with base state. *)
  let write_checkpoint sink =
    Codec.write_string sink (Shard_map.encode_spec st.map);
    Codec.write_option sink
      (fun b m -> Codec.write_string b (Shard_map.encode_spec m))
      st.target;
    Codec.write_list sink Codec.write_string
      (Hashtbl.fold (fun k () acc -> k :: acc) st.present [] |> List.sort compare);
    app.R.App.write_checkpoint sink
  in
  let read_checkpoint src =
    let spec = Codec.read_string src in
    let target =
      Codec.read_option src (fun s -> Codec.read_string s)
    in
    let keys = Codec.read_list src Codec.read_string in
    (match Shard_map.decode_spec spec with
    | Some m -> st.map <- m
    | None -> raise (Codec.Decode_error "Partition: bad map spec in checkpoint"));
    st.target <-
      (match target with
      | None -> None
      | Some s -> (
        match Shard_map.decode_spec s with
        | Some m -> Some m
        | None ->
          raise (Codec.Decode_error "Partition: bad target spec in checkpoint")));
    Hashtbl.reset st.present;
    List.iter (fun k -> Hashtbl.replace st.present k ()) keys;
    note_gauges ();
    app.R.App.read_checkpoint src
  in
  (* [present] stays out of the digest: the primary's table can hold
     extras from rolled-back speculation that secondaries never saw.
     Map and target are log-driven, hence digest-worthy. *)
  let digest () =
    Printf.sprintf "%s#%s%s" (app.R.App.digest ())
      (Shard_map.encode_spec st.map)
      (match st.target with
      | None -> ""
      | Some m -> "->" ^ Shard_map.encode_spec m)
  in
  {
    R.App.name = Printf.sprintf "%s@shard%d" app.R.App.name group;
    execute;
    query;
    write_checkpoint;
    read_checkpoint;
    digest;
  }
