(** Compact binary wire format used for traces, RPC payloads and
    checkpoints.

    Integers use LEB128-style varint encoding so that the dominant trace
    payload (event ids, logical clocks, edge endpoints) stays small — this
    is what lets the harness reproduce the paper's "each synchronization
    event adds around 16 bytes to the trace" measurement.  All encoders
    append to a growable {!sink}; decoders consume a {!source} cursor and
    raise {!Decode_error} on malformed input. *)

exception Decode_error of string

(** {1 Encoding} *)

type sink

val sink : ?initial_capacity:int -> unit -> sink
(** Default capacity 64 bytes; the buffer grows as needed.  Pass the
    exact size (see {!uvarint_size} and friends) for a message whose
    length is known up front. *)

val counting_sink : unit -> sink
(** A sink that only counts bytes: run any encoder against it and read the
    would-be wire size back with {!length}, without allocating the encoded
    string.  {!contents} raises [Invalid_argument] on a counting sink. *)

val contents : sink -> string
val length : sink -> int
val clear : sink -> unit

val write_byte : sink -> int -> unit
val write_bool : sink -> bool -> unit

val write_uvarint : sink -> int -> unit
(** Unsigned varint; the argument must be non-negative. *)

val write_varint : sink -> int -> unit
(** Signed varint (zig-zag). *)

val uvarint_size : int -> int
(** Bytes {!write_uvarint} writes for this value. *)

val varint_size : int -> int
(** Bytes {!write_varint} writes for this value. *)

val string_size : string -> int
(** Bytes {!write_string} writes for this string, length prefix included. *)

val write_float : sink -> float -> unit
(** IEEE-754 double, 8 bytes, little endian. *)

val write_string : sink -> string -> unit
(** Length-prefixed. *)

val write_raw : sink -> string -> pos:int -> len:int -> unit
(** Append [len] bytes of the string from [pos] as they are, with no
    length prefix: splices bytes an encoder wrote earlier. *)

val write_list : sink -> (sink -> 'a -> unit) -> 'a list -> unit
val write_array : sink -> (sink -> 'a -> unit) -> 'a array -> unit
val write_option : sink -> (sink -> 'a -> unit) -> 'a option -> unit
val write_pair :
  sink -> (sink -> 'a -> unit) -> (sink -> 'b -> unit) -> 'a * 'b -> unit

(** {1 Decoding} *)

type source

val source : string -> source
val source_of_substring : string -> pos:int -> len:int -> source
val remaining : source -> int
val at_end : source -> bool

val read_byte : source -> int

val read_bool : source -> bool
val read_uvarint : source -> int
val read_varint : source -> int
val read_float : source -> float
val read_string : source -> string
val read_list : source -> (source -> 'a) -> 'a list
val read_array : source -> (source -> 'a) -> 'a array
val read_option : source -> (source -> 'a) -> 'a option
val read_pair : source -> (source -> 'a) -> (source -> 'b) -> 'a * 'b

(** {1 Whole-value helpers} *)

val encode : ('a -> sink -> unit) -> 'a -> string
val decode : (source -> 'a) -> string -> 'a
(** [decode reader s] runs [reader] and checks the input was fully
    consumed. *)
