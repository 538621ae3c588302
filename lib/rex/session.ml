module Envelope = struct
  type t = { client : int; seq : int; payload : string }

  let magic = 0xE5

  let encode { client; seq; payload } =
    Codec.encode
      (fun () b ->
        Codec.write_byte b magic;
        Codec.write_uvarint b client;
        Codec.write_uvarint b seq;
        Codec.write_string b payload)
      ()

  let decode s =
    if String.length s = 0 || Char.code s.[0] <> magic then None
    else
      Some
        (Codec.decode
           (fun src ->
             let (_ : int) = Codec.read_byte src in
             let client = Codec.read_uvarint src in
             let seq = Codec.read_uvarint src in
             let payload = Codec.read_string src in
             { client; seq; payload })
           s)
end

module Table = struct
  type entry = {
    mutable last_seq : int;
    mutable replies : (int * string) list; (* sorted by seq, descending *)
    mutable cached : int;  (* List.length replies *)
    mutable logged : int;  (* the undo-log epoch this entry was saved in *)
  }

  type t = {
    window : int;
    sessions : (int, entry) Hashtbl.t;
    mutable sum : int;  (* the digest: see [term_last], [term_reply] *)
    mutable savepoint : int;  (* the live savepoint's epoch; 0 = none *)
    mutable epoch : int;  (* bumped whenever the undo log is emptied *)
    mutable undo_log : (int * entry option) list;
        (* since the savepoint: each changed client's entry before its
           first change, [None] if it had none *)
    mutable undo_sum : int;
    c_dup : Obs.Metric.counter;
    c_evict : Obs.Metric.counter;
    g_sessions : Obs.Metric.gauge;
  }

  type lookup = Hit of string | Stale | Miss

  (* The digest is a sum (mod 2^63) of one term per [last_seq] and one
     per cached reply, so it does not depend on the order records
     arrived in and [record] updates it by difference.  [mix] is
     SplitMix64's finalizer with its constants cut to OCaml's int. *)
  let mix x =
    let x = (x lxor (x lsr 31)) * 0x3f58476d1ce4e5b9 in
    let x = (x lxor (x lsr 29)) * 0x14d049bb133111eb in
    x lxor (x lsr 32)

  let term_last client last_seq = mix (mix (client lxor 0x2545f4914f6cdd1d) + last_seq)

  let term_reply client seq reply =
    let h = (Hashtbl.seeded_hash 1 reply lsl 30) lxor Hashtbl.seeded_hash 2 reply in
    mix (mix (mix client + seq) + h)

  let create ?(window = 64) obs ~stack ~node () =
    if window <= 0 then invalid_arg "Session.Table.create: window";
    let labels = [ ("stack", stack); ("node", string_of_int node) ] in
    {
      window;
      sessions = Hashtbl.create 64;
      sum = 0;
      savepoint = 0;
      epoch = 0;
      undo_log = [];
      undo_sum = 0;
      c_dup = Obs.counter obs ~subsystem:"frontend" ~labels "dup_hits";
      c_evict = Obs.counter obs ~subsystem:"frontend" ~labels "cache_evictions";
      g_sessions = Obs.gauge obs ~subsystem:"frontend" ~labels "sessions";
    }

  let set_gauge t =
    Obs.Metric.set t.g_sessions (float_of_int (Hashtbl.length t.sessions))

  (* An executed seq missing from the cache was evicted, which requires
     at least [window] distinct higher executed seqs, so [last_seq >= seq
     + window].  Conversely a seq within [window] of [last_seq] that is
     absent was never executed (a concurrency gap: a slower request whose
     later-seq siblings committed first) and must execute now — NOT be
     refused as stale.  Hence the cutoff below, and the requirement that
     [window] exceed a client's concurrent in-flight requests. *)
  let lookup t ~client ~seq =
    match Hashtbl.find_opt t.sessions client with
    | None -> Miss
    | Some e -> (
      match List.assoc_opt seq e.replies with
      | Some reply -> Hit reply
      | None -> if seq <= e.last_seq - t.window then Stale else Miss)

  (* Under a live savepoint, an entry is copied before its first change;
     the reply list is immutable, so the copy is O(1). *)
  let entry t client =
    match Hashtbl.find_opt t.sessions client with
    | Some e ->
      if t.savepoint <> 0 && e.logged <> t.epoch then begin
        t.undo_log <- (client, Some { e with logged = e.logged }) :: t.undo_log;
        e.logged <- t.epoch
      end;
      e
    | None ->
      if t.savepoint <> 0 then t.undo_log <- (client, None) :: t.undo_log;
      let e = { last_seq = -1; replies = []; cached = 0; logged = t.epoch } in
      t.sum <- t.sum + term_last client (-1);
      Hashtbl.replace t.sessions client e;
      set_gauge t;
      e

  (* Insert preserving descending-seq order.  Replay on a recovering
     replica can apply records of distinct requests in any order, so this
     must be a commutative merge, not an append.  Returns the reply
     replaced at the same seq, if any. *)
  let insert_sorted seq reply l =
    let replaced = ref None in
    let rec go = function
      | [] -> [ (seq, reply) ]
      | (s, _) :: _ as rest when seq > s -> (seq, reply) :: rest
      | (s, old) :: rest when seq = s ->
        replaced := Some old;
        (s, reply) :: rest
      | p :: rest -> p :: go rest
    in
    let l = go l in
    (l, !replaced)

  (* The first [n] elements of [l], calling [drop] on each of the rest. *)
  let rec keep n drop = function
    | [] -> []
    | l when n = 0 ->
      List.iter drop l;
      []
    | x :: rest -> x :: keep (n - 1) drop rest

  let record t ~client ~seq ~reply =
    let e = entry t client in
    if seq > e.last_seq then begin
      t.sum <- t.sum - term_last client e.last_seq + term_last client seq;
      e.last_seq <- seq
    end;
    let replies, replaced = insert_sorted seq reply e.replies in
    t.sum <- t.sum + term_reply client seq reply;
    (match replaced with
    | Some old -> t.sum <- t.sum - term_reply client seq old
    | None -> e.cached <- e.cached + 1);
    if e.cached > t.window then begin
      let drop (s, r) = t.sum <- t.sum - term_reply client s r in
      let kept = keep t.window drop replies in
      Obs.Metric.add t.c_evict (e.cached - t.window);
      e.cached <- t.window;
      e.replies <- kept
    end
    else e.replies <- replies

  let note_dup t = Obs.Metric.incr t.c_dup

  (* Replacing the whole content ends the live savepoint. *)
  let forget_savepoint t =
    t.savepoint <- 0;
    t.undo_log <- []

  let savepoint t =
    t.epoch <- t.epoch + 1;
    let id = t.epoch in
    t.savepoint <- id;
    t.undo_log <- [];
    t.undo_sum <- t.sum;
    fun () ->
      if t.savepoint <> id then
        invalid_arg "Session.Table.savepoint: undo of a superseded savepoint";
      List.iter
        (fun (client, prior) ->
          match prior with
          | None -> Hashtbl.remove t.sessions client
          | Some e -> Hashtbl.replace t.sessions client e)
        t.undo_log;
      t.undo_log <- [];
      t.sum <- t.undo_sum;
      t.epoch <- t.epoch + 1;
      set_gauge t

  let clear t =
    Hashtbl.reset t.sessions;
    t.sum <- 0;
    forget_savepoint t;
    set_gauge t

  let dump t =
    Hashtbl.fold
      (fun client e acc -> (client, e.last_seq, e.replies) :: acc)
      t.sessions []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

  let write sink t =
    let rows = dump t in
    Codec.write_list sink
      (fun b (client, last_seq, replies) ->
        Codec.write_uvarint b client;
        Codec.write_varint b last_seq;
        Codec.write_list b
          (fun b (seq, reply) ->
            Codec.write_uvarint b seq;
            Codec.write_string b reply)
          replies)
      rows

  let read src t =
    let rows =
      Codec.read_list src (fun s ->
          let client = Codec.read_uvarint s in
          let last_seq = Codec.read_varint s in
          let replies =
            Codec.read_list s (fun s ->
                let seq = Codec.read_uvarint s in
                let reply = Codec.read_string s in
                (seq, reply))
          in
          (client, last_seq, replies))
    in
    Hashtbl.reset t.sessions;
    forget_savepoint t;
    List.iter
      (fun (client, last_seq, replies) ->
        Hashtbl.replace t.sessions client
          { last_seq; replies; cached = List.length replies; logged = -1 })
      rows;
    t.sum <-
      Hashtbl.fold
        (fun client e sum ->
          List.fold_left
            (fun sum (seq, reply) -> sum + term_reply client seq reply)
            (sum + term_last client e.last_seq)
            e.replies)
        t.sessions 0;
    set_gauge t

  let digest t = string_of_int t.sum

  let sessions t = Hashtbl.length t.sessions
  let dup_hits t = Obs.Metric.value t.c_dup
  let evictions t = Obs.Metric.value t.c_evict
  let window t = t.window
end

let wrap ~table ~dedup_in_execute (app : App.t) : App.t =
  let execute ~request =
    match Envelope.decode request with
    | None -> app.App.execute ~request
    | Some { Envelope.client; seq; payload } ->
      let fresh () =
        let reply = app.App.execute ~request:payload in
        Table.record table ~client ~seq ~reply;
        reply
      in
      if not dedup_in_execute then fresh ()
      else (
        match Table.lookup table ~client ~seq with
        | Table.Hit reply ->
          Table.note_dup table;
          reply
        | Table.Stale ->
          Table.note_dup table;
          "ERR:duplicate-evicted"
        | Table.Miss -> fresh ())
  in
  let write_checkpoint sink =
    Table.write sink table;
    app.App.write_checkpoint sink
  in
  let read_checkpoint src =
    Table.read src table;
    app.App.read_checkpoint src
  in
  let digest () = app.App.digest () ^ "#s" ^ Table.digest table in
  { app with App.execute; write_checkpoint; read_checkpoint; digest }
