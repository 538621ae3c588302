(** Consensus values: what Rex proposes to Paxos instances — a trace delta
    plus an optional checkpoint request (paper §3.3).  Values go straight
    between the trace and the wire: no delta value is built on either
    side. *)

type ckpt = int * Trace.Cut.t
(** checkpoint sequence number and the cut at which secondaries should
    snapshot *)

val encode_next :
  Trace.t -> Trace.Delta.cursor -> upto:Trace.Cut.t -> ckpt option -> string
(** The delta from the cursor to [upto] ({!Trace.Delta.write_next}, which
    advances the cursor), then the checkpoint request. *)

val apply : Trace.t -> string -> (Trace.Cut.t * ckpt option, string) result
(** Applies a value's delta to the trace as it is decoded
    ({!Trace.Delta.read_apply}) and returns its [upto] and checkpoint
    request; [Error] if the delta does not line up with the trace.
    Raises {!Codec.Decode_error} on malformed bytes, possibly after
    extending the trace. *)

val upto : string -> Trace.Cut.t
(** Decodes a whole value, applying nothing, and returns its delta's
    [upto].  Raises {!Codec.Decode_error} on malformed bytes. *)
