module Cut = struct
  type t = int array

  let zero ~slots = Array.make slots 0

  let of_array a =
    if Array.exists (fun w -> w < 0) a then invalid_arg "Cut.of_array";
    Array.copy a

  let to_array = Array.copy
  let slots = Array.length
  let watermark c s = c.(s)
  let includes c (id : Event.Id.t) = id.clock <= c.(id.slot)

  let leq a b =
    let n = Array.length a in
    let rec go i = i >= n || (a.(i) <= b.(i) && go (i + 1)) in
    Array.length b = n && go 0

  let equal a b = a = b
  let min a b = Array.mapi (fun i v -> Stdlib.min v b.(i)) a
  let pp = Fmt.(brackets (array ~sep:comma int))
  let write b c = Codec.write_array b Codec.write_uvarint c
  let read s = Codec.read_array s Codec.read_uvarint
end

type slot_data = {
  events : Event.t Vec.t;
  edges : (Event.Id.t * Event.Id.t) Vec.t;
      (* edges whose destination lies in this slot, destination clock
         nondecreasing *)
}

module Ids = Hashtbl.Make (Int)

type t = {
  base : int array;
      (* clocks at or below the base are before this trace object's
         horizon (a checkpoint cut); their events are not materialized.
         Advanced in place by [compact]. *)
  slot_data : slot_data array;
  incoming_tbl : Event.Id.t list Ids.t;  (* keyed by [key] *)
  mutable n_events : int;
  mutable end_total : int;  (* sum of the slot ends: [compact] keeps it *)
  mutable n_edges : int;
  mutable n_compactions : int;
      (* bumped by [compact]; extraction cursors use it to notice that
         vec indices shifted under them *)
}

let create ?base ~slots () =
  if slots <= 0 then invalid_arg "Trace.create";
  let base =
    match base with
    | None -> Array.make slots 0
    | Some b ->
      if Array.length b <> slots then invalid_arg "Trace.create: base arity";
      Array.copy b
  in
  {
    base;
    slot_data =
      Array.init slots (fun _ -> { events = Vec.create (); edges = Vec.create () });
    incoming_tbl = Ids.create 256;
    n_events = 0;
    end_total = Array.fold_left ( + ) 0 base;
    n_edges = 0;
    n_compactions = 0;
  }

let num_slots t = Array.length t.slot_data

(* An event id as one int, so the incoming-edge index hashes no tuple. *)
let key t (id : Event.Id.t) = (id.clock * num_slots t) + id.slot

let base_cut t = Array.copy t.base
let slot_end t s = t.base.(s) + Vec.length t.slot_data.(s).events

let append t (e : Event.t) =
  let s = e.id.slot in
  if s < 0 || s >= num_slots t then invalid_arg "Trace.append: bad slot";
  if e.id.clock <> slot_end t s + 1 then
    invalid_arg
      (Printf.sprintf "Trace.append: clock %d in slot %d, expected %d"
         e.id.clock s (slot_end t s + 1));
  Vec.push t.slot_data.(s).events e;
  t.n_events <- t.n_events + 1;
  t.end_total <- t.end_total + 1

(* A source may predate the trace's horizon: the event itself is gone (a
   checkpoint subsumed it) but referring to it in an edge is legal — a
   replayer's scoreboard starts at the base, so such edges are trivially
   satisfied. *)
let valid_src t (id : Event.Id.t) =
  id.slot >= 0 && id.slot < num_slots t && id.clock >= 1
  && id.clock <= slot_end t id.slot

let contains t (id : Event.Id.t) =
  valid_src t id && id.clock > t.base.(id.slot)

let add_edge t ~src ~dst =
  if not (valid_src t src) then invalid_arg "Trace.add_edge: src not in trace";
  if not (contains t dst) then invalid_arg "Trace.add_edge: dst not in trace";
  if src.Event.Id.slot = dst.Event.Id.slot then
    invalid_arg "Trace.add_edge: intra-slot edge (program order is implicit)";
  let sd = t.slot_data.(dst.slot) in
  (match Vec.last sd.edges with
  | Some (_, prev_dst) when prev_dst.Event.Id.clock > dst.clock ->
    invalid_arg "Trace.add_edge: destination clocks must be nondecreasing"
  | _ -> ());
  Vec.push sd.edges (src, dst);
  t.n_edges <- t.n_edges + 1;
  let k = key t dst in
  let prev = Option.value (Ids.find_opt t.incoming_tbl k) ~default:[] in
  Ids.replace t.incoming_tbl k (src :: prev)

let find t (id : Event.Id.t) =
  if contains t id then
    Some (Vec.get t.slot_data.(id.slot).events (id.clock - t.base.(id.slot) - 1))
  else None

let incoming t (id : Event.Id.t) =
  if id.slot < 0 || id.slot >= num_slots t then []
  else Option.value (Ids.find_opt t.incoming_tbl (key t id)) ~default:[]

let end_cut t = Array.init (num_slots t) (slot_end t)

let end_leq t cut =
  let n = num_slots t in
  let rec go s = s >= n || (slot_end t s <= cut.(s) && go (s + 1)) in
  Array.length cut = n && go 0

let holds t cut =
  let n = num_slots t in
  let rec go s = s >= n || (cut.(s) <= slot_end t s && go (s + 1)) in
  Array.length cut = n && go 0

let end_total t = t.end_total

let event_count t = t.n_events
let edge_count t = t.n_edges
let incoming_entries t = Ids.length t.incoming_tbl
let compactions t = t.n_compactions

let iter_events t f =
  Array.iter (fun sd -> Vec.iter f sd.events) t.slot_data

let iter_edges t f =
  Array.iter (fun sd -> Vec.iter (fun (src, dst) -> f ~src ~dst) sd.edges)
    t.slot_data

let pp ppf t =
  Fmt.pf ppf "trace<%d slots, %d events, %d edges, end %a>" (num_slots t)
    (event_count t) (edge_count t) Cut.pp (end_cut t)

let is_consistent t cut =
  let ok = ref true in
  iter_edges t (fun ~src ~dst ->
      if Cut.includes cut dst && not (Cut.includes cut src) then ok := false);
  !ok

let last_consistent t cut =
  let c = Array.copy cut in
  let changed = ref true in
  while !changed do
    changed := false;
    iter_edges t (fun ~src ~dst ->
        if
          dst.Event.Id.clock <= c.(dst.slot)
          && src.Event.Id.clock > c.(src.slot)
        then begin
          c.(dst.slot) <- dst.clock - 1;
          changed := true
        end)
  done;
  c

(* First index in [edges] whose destination clock exceeds [wm]; edges are
   sorted by destination clock. *)
let edge_lower_bound edges wm =
  let n = Vec.length edges in
  let rec bs lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      let _, dst = Vec.get edges mid in
      if dst.Event.Id.clock <= wm then bs (mid + 1) hi else bs lo mid
  in
  bs 0 n

(* Drop everything at or below [upto] in place: a checkpoint at that cut
   subsumes those events, and edges pointing below the new horizon are
   trivially satisfied during replay (see [valid_src]).  Watermarks below
   the current base are clamped, so compacting with a stale cut is a
   no-op rather than an error — a lagging replica compacts as far as it
   safely can now and catches up at the next checkpoint. *)
let compact t ~upto =
  if Cut.slots upto <> num_slots t then invalid_arg "Trace.compact: cut arity";
  if not (Cut.leq upto (end_cut t)) then
    invalid_arg "Trace.compact: cut beyond trace end";
  let dropped = ref false in
  for s = 0 to num_slots t - 1 do
    let wm = Stdlib.max (Cut.watermark upto s) t.base.(s) in
    let sd = t.slot_data.(s) in
    let n_ev = wm - t.base.(s) in
    if n_ev > 0 then begin
      Vec.drop_front sd.events n_ev;
      t.n_events <- t.n_events - n_ev;
      (* All edges into a given destination share one table entry, and all
         of them drop together (same destination clock), so removing the
         key once per dropped edge is exact. *)
      let n_ed = edge_lower_bound sd.edges wm in
      if n_ed > 0 then begin
        for i = 0 to n_ed - 1 do
          let _, (dst : Event.Id.t) = Vec.get sd.edges i in
          Ids.remove t.incoming_tbl (key t dst)
        done;
        Vec.drop_front sd.edges n_ed;
        t.n_edges <- t.n_edges - n_ed
      end;
      t.base.(s) <- wm;
      dropped := true
    end
  done;
  if !dropped then t.n_compactions <- t.n_compactions + 1

let is_prefix t ~of_ =
  num_slots t = num_slots of_
  && t.base = of_.base
  && Cut.leq (end_cut t) (end_cut of_)
  &&
  let ok = ref true in
  for s = 0 to num_slots t - 1 do
    let a = t.slot_data.(s) and b = of_.slot_data.(s) in
    for i = 0 to Vec.length a.events - 1 do
      if Vec.get a.events i <> Vec.get b.events i then ok := false
    done;
    (* Edges of the prefix must be exactly the larger trace's edges whose
       destination falls inside the prefix. *)
    let wm = slot_end t s in
    let expected = edge_lower_bound b.edges wm in
    if Vec.length a.edges <> expected then ok := false
    else
      for i = 0 to expected - 1 do
        if Vec.get a.edges i <> Vec.get b.edges i then ok := false
      done
  done;
  !ok

module Delta = struct
  type trace = t

  type t = {
    base : Cut.t;
    upto : Cut.t;
    events : Event.t list;
    edges : (Event.Id.t * Event.Id.t) list;
  }

  let extract ?upto (tr : trace) ~base =
    if Cut.slots base <> num_slots tr then invalid_arg "Delta.extract";
    let upto = Option.value upto ~default:(end_cut tr) in
    if not (Cut.leq base upto) || not (Cut.leq upto (end_cut tr)) then
      invalid_arg "Delta.extract: cuts out of range";
    if not (Cut.leq tr.base base) then
      invalid_arg "Delta.extract: base below trace horizon";
    (* Cons in reverse traversal order — slots and indices descending — so
       the result is ascending with no intermediate lists. *)
    let events = ref [] in
    let edges = ref [] in
    for s = num_slots tr - 1 downto 0 do
      let sd = tr.slot_data.(s) in
      let lo = Cut.watermark base s - tr.base.(s)
      and hi = Cut.watermark upto s - tr.base.(s) in
      for i = hi - 1 downto lo do
        events := Vec.get sd.events i :: !events
      done;
      (* Edge slicing is by absolute destination clock, not vec index —
         the two differ on a trace with a checkpoint base. *)
      let e_lo = edge_lower_bound sd.edges (Cut.watermark base s)
      and e_hi = edge_lower_bound sd.edges (Cut.watermark upto s) in
      for i = e_hi - 1 downto e_lo do
        edges := Vec.get sd.edges i :: !edges
      done
    done;
    { base; upto; events = !events; edges = !edges }

  (* A cursor remembers where the previous extraction stopped — the cut
     and, crucially, the per-slot vec index of the first unconsumed edge —
     so the steady-state proposer pays O(new events + new edges) per
     interval instead of re-binary-searching a history that grows without
     bound between checkpoints. *)
  type cursor = {
    mutable cur_base : int array;  (* where the next extraction starts *)
    cur_edge_idx : int array;  (* per-slot index of first unconsumed edge *)
    mutable cur_gen : int;  (* trace compaction generation for the indices *)
  }

  let cursor (tr : trace) ~base =
    if Cut.slots base <> num_slots tr then invalid_arg "Delta.cursor: arity";
    if not (Cut.leq tr.base base) then
      invalid_arg "Delta.cursor: base below trace horizon";
    if not (Cut.leq base (end_cut tr)) then
      invalid_arg "Delta.cursor: base beyond trace end";
    {
      cur_base = Cut.to_array base;
      cur_edge_idx =
        Array.init (num_slots tr) (fun s ->
            edge_lower_bound tr.slot_data.(s).edges (Cut.watermark base s));
      cur_gen = tr.n_compactions;
    }

  let cursor_base c = Array.copy c.cur_base

  (* Check [upto] against the cursor and re-derive the edge indices if a
     compaction shifted the vecs under it (at most once per checkpoint). *)
  let check_next ~what ~upto (tr : trace) (c : cursor) =
    let slots = num_slots tr in
    if Array.length c.cur_base <> slots then invalid_arg (what ^ ": arity");
    let base = c.cur_base in
    if not (Cut.leq tr.base base) then
      invalid_arg (what ^ ": cursor base below trace horizon");
    if not (Cut.leq base upto) || not (holds tr upto) then
      invalid_arg (what ^ ": cuts out of range");
    if c.cur_gen <> tr.n_compactions then begin
      for s = 0 to slots - 1 do
        c.cur_edge_idx.(s) <- edge_lower_bound tr.slot_data.(s).edges base.(s)
      done;
      c.cur_gen <- tr.n_compactions
    end

  (* The end of slot [s]'s edges up to [upto], walking forward from the
     cursor's index: O(edges in this delta), no search over the
     accumulated history. *)
  let edge_stop (tr : trace) (c : cursor) ~upto s =
    let edges = tr.slot_data.(s).edges in
    let wm = Cut.watermark upto s in
    let n = Vec.length edges in
    let j = ref c.cur_edge_idx.(s) in
    while !j < n && (snd (Vec.get edges !j)).Event.Id.clock <= wm do
      incr j
    done;
    !j

  let advance (c : cursor) ~upto stops =
    c.cur_base <- Cut.to_array upto;
    Array.blit stops 0 c.cur_edge_idx 0 (Array.length stops)

  (* Validate fully before mutating so a malformed delta leaves the trace
     untouched. *)
  let validate (tr : trace) (d : t) =
    let slots = num_slots tr in
    if Cut.slots d.base <> slots || Cut.slots d.upto <> slots then
      Error "delta cut arity mismatch"
    else if not (Cut.equal (end_cut tr) d.base) then
      Error
        (Fmt.str "delta base %a does not match trace end %a" Cut.pp d.base
           Cut.pp (end_cut tr))
    else if not (Cut.leq d.base d.upto) then Error "delta upto below base"
    else begin
      let next = Array.init slots (fun s -> Cut.watermark d.base s + 1) in
      let events_ok =
        List.for_all
          (fun (e : Event.t) ->
            let s = e.id.slot in
            s >= 0 && s < slots && e.id.clock = next.(s)
            && begin
                 next.(s) <- next.(s) + 1;
                 e.id.clock <= Cut.watermark d.upto s
               end)
          d.events
      in
      let reached =
        Array.for_all2 (fun n w -> n = w + 1) next (Cut.to_array d.upto)
      in
      let last_dst = Array.make slots 0 in
      let edges_ok =
        List.for_all
          (fun ((src : Event.Id.t), (dst : Event.Id.t)) ->
            src.slot <> dst.slot && Cut.includes d.upto src
            && Cut.includes d.upto dst
            && dst.clock > Cut.watermark d.base dst.slot
            && dst.clock >= last_dst.(dst.slot)
            && begin
                 last_dst.(dst.slot) <- dst.clock;
                 true
               end)
          d.edges
      in
      if not events_ok then Error "delta events not contiguous"
      else if not reached then Error "delta events do not reach its upto cut"
      else if not edges_ok then Error "delta edges malformed"
      else Ok ()
    end

  let apply (tr : trace) (d : t) =
    match validate tr d with
    | Error _ as e -> e
    | Ok () ->
      List.iter (append tr) d.events;
      List.iter (fun (src, dst) -> add_edge tr ~src ~dst) d.edges;
      Ok ()

  (* Clock-aligned apply ([read_apply]): a replica rebuilding its trace
     from a checkpoint replays committed deltas whose ranges may partly
     overlap what it already holds (or what the checkpoint subsumed).
     Events at or below the current end are skipped; gaps are an error. *)
  exception Misaligned of string

  let overlap_event (tr : trace) (e : Event.t) =
    let s = e.Event.id.slot in
    let last = slot_end tr s in
    if e.id.clock = last + 1 then append tr e
    else if e.id.clock > last then
      raise
        (Misaligned
           (Printf.sprintf "gap in slot %d: at %d, delta gives %d" s last
              e.id.clock))

  (* Only edges whose destination was appended just now: [before] is the
     trace's end before the delta. *)
  let overlap_edge (tr : trace) before (src : Event.Id.t) (dst : Event.Id.t) =
    if
      dst.clock > before.(dst.slot)
      && contains tr dst && valid_src tr src && src.slot <> dst.slot
    then add_edge tr ~src ~dst

  (* Wire format v1 (magic 0xD7): slot-grouped with implied ids.

       0xD7
       base cut
       per slot s: uvarint (upto(s) - base(s))
       per slot s: that many event bodies, clocks implied contiguous
       per slot s: uvarint edge count, then for each edge whose dst is s:
         uvarint dst-clock delta (from the previous dst; first from base(s))
         uvarint src slot
         varint  (dst clock - src clock)

     Ids are never spelled out: event ids follow from position, edge
     destination clocks are deltas along the nondecreasing per-slot order,
     and source clocks ride as small signed offsets from their destination
     (causal edges point backwards a short causal distance, not a short
     absolute clock). *)

  let magic_v1 = 0xd7

  let write_header b ~base ~upto =
    Codec.write_byte b magic_v1;
    Cut.write b base;
    for s = 0 to Cut.slots base - 1 do
      let n = Cut.watermark upto s - Cut.watermark base s in
      if n < 0 then invalid_arg "Delta.write: upto below base";
      Codec.write_uvarint b n
    done

  let write_edge b ~prev ((src : Event.Id.t), (dst : Event.Id.t)) =
    let dd = dst.clock - prev in
    if dd < 0 then invalid_arg "Delta.write: edge dst clocks decreasing";
    Codec.write_uvarint b dd;
    Codec.write_uvarint b src.slot;
    Codec.write_varint b (dst.clock - src.clock);
    dst.clock

  (* Events and edges are written in list order, which must be
     slot-ascending, as [extract] and [read] give them. *)
  let write b d =
    let slots = Cut.slots d.base in
    if Cut.slots d.upto <> slots then invalid_arg "Delta.write: cut arity";
    write_header b ~base:d.base ~upto:d.upto;
    let slot = ref 0 and next = ref (if slots = 0 then 0 else d.base.(0) + 1) in
    let close_slot () =
      if !next <> Cut.watermark d.upto !slot + 1 then
        invalid_arg "Delta.write: events do not reach the upto cut";
      incr slot;
      if !slot < slots then next := Cut.watermark d.base !slot + 1
    in
    List.iter
      (fun (e : Event.t) ->
        let s = e.id.slot in
        if s < !slot || s >= slots then invalid_arg "Delta.write: bad event slot";
        while !slot < s do
          close_slot ()
        done;
        if e.id.clock <> !next then
          invalid_arg "Delta.write: events not contiguous";
        incr next;
        Event.write_body b e)
      d.events;
    while !slot < slots do
      close_slot ()
    done;
    let counts = Array.make slots 0 in
    ignore
      (List.fold_left
         (fun last (_, (dst : Event.Id.t)) ->
           let s = dst.slot in
           if s < last || s >= slots then invalid_arg "Delta.write: bad edge slot";
           counts.(s) <- counts.(s) + 1;
           s)
         0 d.edges);
    let rest = ref d.edges in
    for s = 0 to slots - 1 do
      Codec.write_uvarint b counts.(s);
      let prev = ref (Cut.watermark d.base s) in
      for _ = 1 to counts.(s) do
        match !rest with
        | e :: tl ->
          prev := write_edge b ~prev:!prev e;
          rest := tl
        | [] -> assert false
      done
    done

  let write_next b ~upto (tr : trace) (c : cursor) =
    check_next ~what:"Delta.write_next" ~upto tr c;
    let slots = num_slots tr in
    let base = c.cur_base in
    write_header b ~base ~upto;
    for s = 0 to slots - 1 do
      let events = tr.slot_data.(s).events in
      for i = base.(s) - tr.base.(s) to Cut.watermark upto s - tr.base.(s) - 1 do
        Event.write_body b (Vec.get events i)
      done
    done;
    let stops = Array.make slots 0 in
    for s = 0 to slots - 1 do
      let edges = tr.slot_data.(s).edges in
      let lo = c.cur_edge_idx.(s) and hi = edge_stop tr c ~upto s in
      stops.(s) <- hi;
      Codec.write_uvarint b (hi - lo);
      let prev = ref base.(s) in
      for i = lo to hi - 1 do
        prev := write_edge b ~prev:!prev (Vec.get edges i)
      done
    done;
    advance c ~upto stops

  (* The one v1 decoder.  [event] and [edge] see each item as it is
     decoded, slot-ascending; [base] sees the base cut first.  The cut
     returned is the delta's upto, built in place of that base. *)
  let decode s ~base ~event ~edge =
    let magic = Codec.read_byte s in
    if magic <> magic_v1 then
      raise (Codec.Decode_error (Printf.sprintf "Delta.read: bad magic 0x%02x" magic));
    let cut = Cut.read s in
    base cut;
    let slots = Cut.slots cut in
    let counts = Array.make slots 0 in
    for sl = 0 to slots - 1 do
      counts.(sl) <- Codec.read_uvarint s
    done;
    for sl = 0 to slots - 1 do
      let b = cut.(sl) in
      for i = 1 to counts.(sl) do
        event (Event.read_body s ~slot:sl ~clock:(b + i))
      done;
      cut.(sl) <- b + counts.(sl)
    done;
    for sl = 0 to slots - 1 do
      let n = Codec.read_uvarint s in
      let prev = ref (cut.(sl) - counts.(sl)) in
      for _ = 1 to n do
        let dd = Codec.read_uvarint s in
        prev := !prev + dd;
        let src_slot = Codec.read_uvarint s in
        let diff = Codec.read_varint s in
        edge
          { Event.Id.slot = src_slot; clock = !prev - diff }
          { Event.Id.slot = sl; clock = !prev }
      done
    done;
    cut

  let read s =
    let base = ref [||] and events = ref [] and edges = ref [] in
    let upto =
      decode s
        ~base:(fun c -> base := Array.copy c)
        ~event:(fun e -> events := e :: !events)
        ~edge:(fun src dst -> edges := (src, dst) :: !edges)
    in
    { base = !base; upto; events = List.rev !events; edges = List.rev !edges }

  let read_upto s = decode s ~base:ignore ~event:ignore ~edge:(fun _ _ -> ())

  let read_apply s (tr : trace) =
    let before = ref [||] in
    match
      decode s
        ~base:(fun c ->
          if Cut.slots c <> num_slots tr then
            raise (Misaligned "delta arity mismatch");
          before := end_cut tr)
        ~event:(overlap_event tr)
        ~edge:(fun src dst -> overlap_edge tr !before src dst)
    with
    | upto -> Ok upto
    | exception Misaligned msg -> Error msg

  let wire_size d =
    let b = Codec.counting_sink () in
    write b d;
    Codec.length b
end
