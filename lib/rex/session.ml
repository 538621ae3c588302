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
  (* A client's reply window.  In descending seq order its replies are
     [newer @ List.rev older]: [newer] is descending (newest first),
     [older] ascending (oldest first), and every seq in [newer] is above
     every seq in [older].  An in-order record pushes onto [newer] and
     evicts the head of [older], reversing [newer] into it when it runs
     out, so both are amortised O(1).  The lists are immutable, so a
     savepoint copies an entry in O(1). *)
  type entry = {
    mutable last_seq : int;  (* >= every cached seq *)
    mutable newer : (int * string) list;
    mutable older : (int * string) list;
    mutable cached : int;  (* length of [newer] plus length of [older] *)
    mutable logged : int;  (* the undo-log epoch this entry was saved in *)
  }

  module Clients = Hashtbl.Make (Int)

  type t = {
    window : int;
    sessions : entry Clients.t;
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

  let default_window = 64

  let create ?(window = default_window) obs ~stack ~node () =
    if window <= 0 then invalid_arg "Session.Table.create: window";
    let labels = [ ("stack", stack); ("node", string_of_int node) ] in
    {
      window;
      sessions = Clients.create 64;
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
    Obs.Metric.set t.g_sessions (float_of_int (Clients.length t.sessions))

  (* An executed seq missing from the cache was evicted, which requires
     at least [window] distinct higher executed seqs, so [last_seq >= seq
     + window].  Conversely a seq within [window] of [last_seq] that is
     absent was never executed (a concurrency gap: a slower request whose
     later-seq siblings committed first) and must execute now — NOT be
     refused as stale.  Hence the cutoff below, and the requirement that
     [window] exceed a client's concurrent in-flight requests.

     Every cached seq is at most [last_seq], so a seq above it is a miss
     without a search; any other search stops at the first cached seq
     below [seq]. *)
  let lookup t ~client ~seq =
    match Clients.find_opt t.sessions client with
    | None -> Miss
    | Some e ->
      if seq > e.last_seq then Miss
      else
        let rec older = function
          | (s, r) :: _ when s = seq -> Some r
          | (s, _) :: rest when s < seq -> older rest
          | _ -> None
        in
        let rec newer = function
          | [] -> older e.older
          | (s, r) :: _ when s = seq -> Some r
          | (s, _) :: rest when s > seq -> newer rest
          | _ -> None
        in
        match newer e.newer with
        | Some reply -> Hit reply
        | None -> if seq <= e.last_seq - t.window then Stale else Miss

  (* Under a live savepoint, an entry is copied before its first change;
     the reply lists are immutable, so the copy is O(1). *)
  let entry t client =
    match Clients.find_opt t.sessions client with
    | Some e ->
      if t.savepoint <> 0 && e.logged <> t.epoch then begin
        t.undo_log <- (client, Some { e with logged = e.logged }) :: t.undo_log;
        e.logged <- t.epoch
      end;
      e
    | None ->
      if t.savepoint <> 0 then t.undo_log <- (client, None) :: t.undo_log;
      let e = { last_seq = -1; newer = []; older = []; cached = 0; logged = t.epoch } in
      t.sum <- t.sum + term_last client (-1);
      Clients.replace t.sessions client e;
      set_gauge t;
      e

  let replies e = e.newer @ List.rev e.older

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
    t.sum <- t.sum + term_reply client seq reply;
    if seq > e.last_seq then begin
      (* In order: [seq] is above every cached seq, so it is not cached
         yet and a full window evicts its lowest seq. *)
      t.sum <- t.sum - term_last client e.last_seq + term_last client seq;
      e.last_seq <- seq;
      e.newer <- (seq, reply) :: e.newer;
      if e.cached < t.window then e.cached <- e.cached + 1
      else begin
        if e.older = [] then begin
          e.older <- List.rev e.newer;
          e.newer <- []
        end;
        match e.older with
        | (s, r) :: rest ->
          t.sum <- t.sum - term_reply client s r;
          e.older <- rest;
          Obs.Metric.incr t.c_evict
        | [] -> assert false
      end
    end
    else begin
      (* A replaced or out-of-order seq: merge into the whole window. *)
      let merged, replaced = insert_sorted seq reply (replies e) in
      (match replaced with
      | Some old -> t.sum <- t.sum - term_reply client seq old
      | None -> e.cached <- e.cached + 1);
      e.older <- [];
      if e.cached > t.window then begin
        let drop (s, r) = t.sum <- t.sum - term_reply client s r in
        e.newer <- keep t.window drop merged;
        Obs.Metric.add t.c_evict (e.cached - t.window);
        e.cached <- t.window
      end
      else e.newer <- merged
    end

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
          | None -> Clients.remove t.sessions client
          | Some e -> Clients.replace t.sessions client e)
        t.undo_log;
      t.undo_log <- [];
      t.sum <- t.undo_sum;
      t.epoch <- t.epoch + 1;
      set_gauge t

  let clear t =
    Clients.reset t.sessions;
    t.sum <- 0;
    forget_savepoint t;
    set_gauge t

  let write sink t =
    let rows =
      Clients.fold (fun client e acc -> (client, e) :: acc) t.sessions []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    in
    let write_reply b (seq, reply) =
      Codec.write_uvarint b seq;
      Codec.write_string b reply
    in
    Codec.write_list sink
      (fun b (client, e) ->
        Codec.write_uvarint b client;
        Codec.write_varint b e.last_seq;
        Codec.write_uvarint b e.cached;
        List.iter (write_reply b) e.newer;
        List.iter (write_reply b) (List.rev e.older))
      rows

  (* [lookup]'s early answers rely on what [write] guarantees, so bytes
     that break it are refused: clients strictly ascending, and per
     client at most [window] replies with strictly descending seqs, none
     above [last_seq]. *)
  let read src t =
    let reject what = raise (Codec.Decode_error ("Session.Table.read: " ^ what)) in
    let prev_client = ref (-1) in
    let rows =
      Codec.read_list src (fun s ->
          let client = Codec.read_uvarint s in
          if client <= !prev_client then reject "clients not ascending";
          prev_client := client;
          let last_seq = Codec.read_varint s in
          let bound = ref last_seq in
          let replies =
            Codec.read_list s (fun s ->
                let seq = Codec.read_uvarint s in
                if seq > !bound then reject "reply seqs not descending below last_seq";
                bound := seq - 1;
                let reply = Codec.read_string s in
                (seq, reply))
          in
          let cached = List.length replies in
          if cached > t.window then reject "more replies than the window";
          (client, { last_seq; newer = replies; older = []; cached; logged = -1 }))
    in
    Clients.reset t.sessions;
    forget_savepoint t;
    t.sum <- 0;
    List.iter
      (fun (client, e) ->
        Clients.replace t.sessions client e;
        t.sum <-
          List.fold_left
            (fun sum (seq, reply) -> sum + term_reply client seq reply)
            (t.sum + term_last client e.last_seq)
            e.newer)
      rows;
    set_gauge t

  let digest t = string_of_int t.sum

  let sessions t = Clients.length t.sessions
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
