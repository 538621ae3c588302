(** Partially-ordered execution traces (paper §2.1).

    A trace is, per thread slot, a sequence of {!Event.t}s in local-clock
    order, plus directed causal edges between events of different slots.
    The primary appends to its trace while executing; consensus proposals
    carry {!Delta}s of a growing trace; secondaries re-assemble the same
    trace and replay it.

    Appending is strict: event clocks must be contiguous per slot, and an
    edge may only point at events already present (the source may be in
    any slot, the destination must be the latest event of its slot or
    earlier).  This keeps every materialized trace well-formed; the
    paper's "inconsistent cut" phenomenon (§3.2, asynchronous logging) is
    modelled by taking {e cuts} that may slice between an edge's source
    and destination, and repaired with {!last_consistent}. *)

type t

module Cut : sig
  (** A cut assigns each slot a watermark: events with [clock <= watermark]
      are inside the cut. *)

  type t

  val zero : slots:int -> t
  val of_array : int array -> t
  val to_array : t -> int array
  val slots : t -> int
  val watermark : t -> int -> int
  val includes : t -> Event.Id.t -> bool
  val leq : t -> t -> bool
  val equal : t -> t -> bool
  val min : t -> t -> t
  val pp : t Fmt.t
  val write : Codec.sink -> t -> unit
  val read : Codec.source -> t
end

val create : ?base:Cut.t -> slots:int -> unit -> t
(** [base] (default: all zeros) is the trace's horizon: a checkpoint cut
    below which events are not materialized.  A replica recovering from a
    checkpoint replays only events above the base; causal-edge sources at
    or below it are considered already executed. *)

val num_slots : t -> int
val base_cut : t -> Cut.t

(** {1 Growing} *)

val append : t -> Event.t -> unit
(** Raises [Invalid_argument] unless the event's clock is exactly one past
    the slot's current end. *)

val add_edge : t -> src:Event.Id.t -> dst:Event.Id.t -> unit
(** Raises [Invalid_argument] if either endpoint is not in the trace or
    the edge is intra-slot (program order is implicit). *)

(** {1 Reading} *)

val slot_end : t -> int -> int
(** Clock of the last event of the slot (0 if none). *)

val find : t -> Event.Id.t -> Event.t option
val incoming : t -> Event.Id.t -> Event.Id.t list
(** Sources of edges into this event (possibly not yet in the trace). *)

val end_cut : t -> Cut.t

val end_leq : t -> Cut.t -> bool
(** [end_leq t c] is [Cut.leq (end_cut t) c], without allocating. *)

val holds : t -> Cut.t -> bool
(** [holds t c] is [Cut.leq c (end_cut t)], without allocating: every
    event of [c] has been appended. *)

val end_total : t -> int
(** Sum of {!end_cut}'s watermarks — every event ever recorded, compacted
    ones included — in O(1) and without allocating. *)

val event_count : t -> int
(** Resident (materialized) events — O(1); excludes anything compacted
    away below the base. *)

val edge_count : t -> int
(** Resident edges — O(1). *)

val incoming_entries : t -> int
(** Number of live entries in the incoming-edge index — O(1); with
    {!event_count} and {!edge_count} this is the trace's resident-memory
    footprint, exported as gauges by the runtime. *)

val iter_events : t -> (Event.t -> unit) -> unit
val iter_edges : t -> (src:Event.Id.t -> dst:Event.Id.t -> unit) -> unit
val pp : t Fmt.t

(** {1 Compaction} *)

val compact : t -> upto:Cut.t -> unit
(** [compact t ~upto] drops, in place, every event and edge whose
    destination lies at or below [upto], and advances the trace's base to
    (the per-slot maximum of the old base and) [upto].  Call it with a
    stable checkpoint cut — one every replica has executed and persisted —
    and the trace's resident size becomes O(window since last checkpoint)
    instead of O(history).

    Edges from below the new base into live events remain, and remain
    legal: a replayer's scoreboard starts at the base, so such sources
    count as already executed.  Per-slot watermarks below the current
    base are clamped (compacting with a stale or partly-stale cut is a
    partial compaction, not an error).  Raises [Invalid_argument] if the
    cut has the wrong arity or lies beyond the trace end.  [upto] should
    be a consistent cut the replica has fully executed; compacting beyond
    either breaks replay. *)

val compactions : t -> int
(** How many calls to {!compact} actually dropped something (the
    compaction generation; extraction cursors key their cached indices
    on it). *)

(** {1 Cut algebra} *)

val is_consistent : t -> Cut.t -> bool
(** No edge crosses out of the cut into it. *)

val last_consistent : t -> Cut.t -> Cut.t
(** Greatest consistent cut below the given one — "the last consistent cut
    contained in a trace [is] the meaning of the proposal" (§3.2). *)

val is_prefix : t -> of_:t -> bool
(** Is this trace a cut of [of_] with identical events and edges?  The
    prefix property of §2.2. *)

(** {1 Deltas: what consensus proposals carry} *)

module Delta : sig
  type trace := t

  type t = {
    base : Cut.t;  (** the already-agreed prefix this extends *)
    upto : Cut.t;  (** the new end *)
    events : Event.t list;  (** per-slot contiguous, clock order *)
    edges : (Event.Id.t * Event.Id.t) list;
  }

  val extract : ?upto:Cut.t -> trace -> base:Cut.t -> t
  (** Everything appended after [base], up to [upto] (default: the current
      end).  [upto] must be a consistent cut, or the delta will fail to
      apply.  Costs a binary search per slot over the resident edge vecs;
      for the repeated steady-state extraction on the proposer path use a
      {!cursor}. *)

  type cursor
  (** Incremental-extraction state: remembers where the previous
      extraction stopped so the next one touches only the new window.
      Tied to the trace it was created from; surviving a {!compact} of
      that trace is handled internally (indices are re-derived), but the
      cursor's base must stay at or above the trace's base — create
      cursors from cuts the compactor is guaranteed not to pass, such as
      the proposer's proposed cut. *)

  val cursor : trace -> base:Cut.t -> cursor
  (** A cursor positioned at [base].  Raises [Invalid_argument] if [base]
      is below the trace's horizon or beyond its end. *)

  val cursor_base : cursor -> Cut.t
  (** The cut the next {!write_next} will use as its delta base. *)

  val apply : trace -> t -> (unit, string) result
  (** Append the delta; fails (leaving the trace unchanged) unless
      [delta.base] equals the trace's current end. *)

  val write : Codec.sink -> t -> unit
  (** Compact wire format (v1): events grouped by slot with ids implied by
      position, edge clocks delta-encoded.  Only well-formed deltas (as
      {!extract} and {!read} produce: events and edges slot-ascending,
      per-slot contiguous events reaching [upto], per-slot nondecreasing
      edge destinations) can be written; raises [Invalid_argument]
      otherwise. *)

  val write_next : Codec.sink -> upto:Cut.t -> trace -> cursor -> unit
  (** [write_next b ~upto tr c] writes the bytes of
      [write b (extract ~upto tr ~base:(cursor_base c))] straight from the
      trace's slot vectors, with no event or edge list, in O(events +
      edges of the delta): no search over the accumulated history.  It
      then advances the cursor to [upto]. *)

  val read : Codec.source -> t
  (** Decodes the v1 format; a first byte other than its magic raises
      {!Codec.Decode_error}.  Decoding normalizes event and edge order to
      slot-ascending, which is how {!extract} emits them. *)

  val read_upto : Codec.source -> Cut.t
  (** Decodes a v1 delta, as strictly as {!read}, and returns only its
      [upto]. *)

  val read_apply : Codec.source -> trace -> (Cut.t, string) result
  (** Applies the delta {!read} would return as it is decoded, with no
      {!t} built, and returns its [upto].  The apply is clock-aligned, for
      checkpoint recovery: events at or below the trace's current end are
      skipped, later ones appended, and only edges into appended events
      added; a gap is an [Error].  A decode error raises
      {!Codec.Decode_error} as {!read} does.  Either may leave the trace
      partly extended. *)

  val wire_size : t -> int
  (** Encoded size in bytes, computed with a counting sink — no buffer is
      materialized. *)
end
