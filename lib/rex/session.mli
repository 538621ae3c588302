(** Exactly-once client sessions: request identity, per-client reply
    caches, and the app wrapper that replicates them.

    Every stack in this repo answers clients through retrying RPC, so a
    request whose {e reply} is lost gets retransmitted — and without
    request identity it executes twice, which diverges state for
    non-idempotent applications (lock acquire, file create) exactly in
    the failover window the paper worries about (§4.3).  The classic fix
    is a session table: clients tag each logical request with a stable
    [(client, seq)] identity ({!Envelope}), replicas remember the last
    sequence executed per client plus a bounded cache of recent replies
    ({!Table}), and a retry of an already-executed request is answered
    from the cache instead of re-executed.

    The table is {e replicated state}: it is updated on the execution
    path (via {!wrap}) on every replica, so a new primary after failover
    already knows which requests committed, and it is serialized inside
    the application checkpoint so exactly-once survives checkpoint
    restore, not just steady state.  Updates are commutative per client
    ([last_seq] merges with [max], the cache keeps the highest-seq
    window), so Rex's out-of-order concurrent replay converges to the
    same content the primary recorded. *)

(** {1 Request envelopes} *)

module Envelope : sig
  type t = { client : int; seq : int; payload : string }
  (** [client] is allocated once per client endpoint
      ({!Sim.Engine.fresh_uid}); [seq] is monotone per client and reused
      {e verbatim} on every retry of the same logical request. *)

  val magic : int
  (** First byte of every enveloped request (0xE5).  Raw request strings
      beginning with this byte cannot be submitted through the client
      ports; the application grammars in this repo are ASCII, so the
      byte is free. *)

  val encode : t -> string

  val decode : string -> t option
  (** [None] when the string does not start with {!magic} — a legacy raw
      request, passed through without dedup.  Raises
      {!Codec.Decode_error} when the magic matches but the rest is
      malformed or truncated. *)
end

(** {1 The per-replica session table} *)

module Table : sig
  type t

  type lookup =
    | Hit of string  (** duplicate of an executed request; cached reply *)
    | Stale
        (** [seq] trails [last_seq] by at least [window]: if it ever
            executed its reply has been evicted, and re-executing is not
            safe.  Only reachable when a client's in-flight seqs span
            [window] or more, which {!Client.Seqs} rules out for windows
            of at least {!default_window}. *)
    | Miss  (** a fresh request (including a concurrency gap: a not yet
            executed seq below a committed one) *)

  val default_window : int
  (** 64: how many replies a client's window keeps by default.  Clients
      keep their in-flight seqs within it ({!Client.Seqs}). *)

  val create :
    ?window:int -> Obs.t -> stack:string -> node:int -> unit -> t
  (** [window] (default {!default_window}) bounds the per-client reply cache: the
      [window] highest-seq replies are kept, older ones are evicted
      (counted in [frontend/cache_evictions]).  Registers
      [frontend/dup_hits], [frontend/cache_evictions] (counters) and
      [frontend/sessions] (gauge) under the given [stack]/[node]
      labels. *)

  val lookup : t -> client:int -> seq:int -> lookup
  (** O(1) for a seq above the client's [last_seq] (a fresh request:
      [Miss]); otherwise a search of the client's cached replies that
      stops at the first seq below [seq], O([window]) at worst. *)

  val record : t -> client:int -> seq:int -> reply:string -> unit
  (** Commutative: [last_seq] merges with [max] and the cache keeps the
      [window] highest sequence numbers, so concurrent replay may apply
      records of distinct requests in any order and converge.  Updates
      the {!digest} by difference: O(1) hashes, plus one per evicted
      reply.  Amortised O(1) when [seq] is above [last_seq] (in order);
      a replaced or out-of-order seq costs O([window]). *)

  val note_dup : t -> unit
  (** Count an intercepted duplicate in [frontend/dup_hits]. *)

  val clear : t -> unit
  (** Forget everything (a replica rebuilding its execution context).
      Ends the live {!savepoint}. *)

  val write : Codec.sink -> t -> unit
  (** Deterministic (client-sorted) serialization — embedded in
      application checkpoints by {!wrap}. *)

  val read : Codec.source -> t -> unit
  (** Replace the table's content with a previously {!write}n one,
      recomputing the {!digest} from scratch.  Ends the live
      {!savepoint}.  Raises {!Codec.Decode_error}, leaving the table
      unchanged, on bytes {!write} cannot produce: clients not strictly
      ascending, or a client with more than [window] replies, reply seqs
      not strictly descending, or one above its [last_seq]. *)

  val digest : t -> string
  (** Content hash, independent of insertion order, in O(1).  It is the
      sum (mod 2{^63}) of one term [h(client, last_seq)] per client and
      one term [h(client, seq, reply)] per cached reply, kept current by
      {!record}; two tables with the same {!write} bytes have the same
      digest. *)

  val savepoint : t -> unit -> unit
  (** [savepoint t] starts logging, for every client entry, its content
      before its first change from now on; the returned undo restores
      those entries (removing clients created since) and the digest, so
      the table's {!write} bytes are again those at the savepoint.  Cost
      is O(1) per changed entry, not O(table).  The savepoint stays live
      after an undo, which may be called again.  A newer [savepoint],
      {!clear} or {!read} ends it: its undo then raises
      [Invalid_argument].  Eve rolls a batch's session records back this
      way. *)

  val sessions : t -> int
  val dup_hits : t -> int
  val evictions : t -> int
  val window : t -> int
end

(** {1 The replicated execution wrapper} *)

val wrap : table:Table.t -> dedup_in_execute:bool -> App.t -> App.t
(** Wrap an application so enveloped requests execute their payload and
    record their reply in [table]; raw requests pass through untouched.
    The wrapper extends [write_checkpoint]/[read_checkpoint] (table
    first, then the app) and folds the table into [digest].

    [dedup_in_execute] adds a check that skips execution and returns the
    cached reply when [seq] was already executed.  Enable it only where
    the committed execution order is identical on every replica (SMR's
    serial executor; Eve batches, whose mixer must keep one client per
    batch): there a freshly-elected leader whose executor still lags can
    let a duplicate through intake, and the execute-time check is the
    deterministic backstop.  Rex must leave it off — replay is
    deliberately out of order, so a skip decision could differ between
    record and replay; Rex instead finishes replaying the committed
    trace before a promoted primary accepts intake, which makes the
    frontend's intake check sufficient. *)
