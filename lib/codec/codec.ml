exception Decode_error of string

let decode_error fmt = Fmt.kstr (fun s -> raise (Decode_error s)) fmt

(* A sink is either a real buffer or a byte counter: encoders written
   against the sink API can be replayed in counting mode to compute a
   wire size without allocating (or copying) the encoded string. *)
type sink = Buf of Buffer.t | Count of { mutable n : int }

let sink ?(initial_capacity = 64) () = Buf (Buffer.create initial_capacity)
let counting_sink () = Count { n = 0 }

let contents = function
  | Buf b -> Buffer.contents b
  | Count _ -> invalid_arg "Codec.contents: counting sink"

let length = function Buf b -> Buffer.length b | Count c -> c.n
let clear = function Buf b -> Buffer.clear b | Count c -> c.n <- 0

let write_byte t n =
  match t with
  | Buf b -> Buffer.add_char b (Char.chr (n land 0xff))
  | Count c -> c.n <- c.n + 1

let write_bool b v = write_byte b (if v then 1 else 0)

let rec uvarint_size n = if n < 0x80 then 1 else 1 + uvarint_size (n lsr 7)

let rec write_uvarint b n =
  assert (n >= 0);
  match b with
  | Count c -> c.n <- c.n + uvarint_size n
  | Buf _ ->
    if n < 0x80 then write_byte b n
    else begin
      write_byte b (0x80 lor (n land 0x7f));
      write_uvarint b (n lsr 7)
    end

(* Zig-zag maps small negative ints to small unsigned ints. *)
let zigzag n = (n lsl 1) lxor (n asr 62)
let write_varint b n = write_uvarint b (zigzag n)
let varint_size n = uvarint_size (zigzag n)
let string_size s = uvarint_size (String.length s) + String.length s

let write_float b f =
  match b with
  | Count c -> c.n <- c.n + 8
  | Buf _ ->
    let bits = Int64.bits_of_float f in
    for i = 0 to 7 do
      write_byte b (Int64.to_int (Int64.shift_right_logical bits (8 * i)))
    done

let write_string b s =
  write_uvarint b (String.length s);
  match b with
  | Buf buf -> Buffer.add_string buf s
  | Count c -> c.n <- c.n + String.length s

let write_raw b s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Codec.write_raw";
  match b with
  | Buf buf -> Buffer.add_substring buf s pos len
  | Count c -> c.n <- c.n + len

let write_list b f l =
  write_uvarint b (List.length l);
  List.iter (f b) l

let write_array b f a =
  write_uvarint b (Array.length a);
  Array.iter (f b) a

let write_option b f = function
  | None -> write_bool b false
  | Some v ->
    write_bool b true;
    f b v

let write_pair b fa fb (a, v) =
  fa b a;
  fb b v

type source = { data : string; limit : int; mutable pos : int }

let source data = { data; limit = String.length data; pos = 0 }

let source_of_substring data ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length data then
    invalid_arg "Codec.source_of_substring";
  { data; limit = pos + len; pos }

let remaining s = s.limit - s.pos
let at_end s = s.pos >= s.limit

let read_byte s =
  if s.pos >= s.limit then decode_error "read_byte: end of input";
  let c = Char.code s.data.[s.pos] in
  s.pos <- s.pos + 1;
  c

let read_bool s =
  match read_byte s with
  | 0 -> false
  | 1 -> true
  | n -> decode_error "read_bool: invalid byte %d" n

(* OCaml ints carry 62 value bits: 8 full 7-bit groups plus a final
   6-bit group.  Reject anything that would spill into the sign bit.  A
   top-level loop, so a read allocates no closure. *)
let rec read_uvarint_from s shift acc =
  if shift > 56 then decode_error "read_uvarint: overflow";
  let c = read_byte s in
  if shift = 56 && c > 0x3f then decode_error "read_uvarint: overflow";
  let acc = acc lor ((c land 0x7f) lsl shift) in
  if c land 0x80 = 0 then acc else read_uvarint_from s (shift + 7) acc

let read_uvarint s = read_uvarint_from s 0 0

let read_varint s =
  let n = read_uvarint s in
  (n lsr 1) lxor (-(n land 1))

let read_float s =
  let bits = ref 0L in
  for i = 0 to 7 do
    let c = read_byte s in
    bits := Int64.logor !bits (Int64.shift_left (Int64.of_int c) (8 * i))
  done;
  Int64.float_of_bits !bits

let read_string s =
  let n = read_uvarint s in
  if n < 0 || n > remaining s then
    decode_error "read_string: truncated (%d bytes)" n;
  let r = String.sub s.data s.pos n in
  s.pos <- s.pos + n;
  r

(* [List.init]/[Array.init] have unspecified evaluation order, so elements
   are read with explicit left-to-right loops. *)
let read_list s f =
  let n = read_uvarint s in
  if n > remaining s then decode_error "read_list: length %d too large" n;
  let rec loop i acc = if i = n then List.rev acc else loop (i + 1) (f s :: acc) in
  loop 0 []

let read_array s f =
  let n = read_uvarint s in
  if n > remaining s then decode_error "read_array: length %d too large" n;
  if n = 0 then [||]
  else begin
    let first = f s in
    let a = Array.make n first in
    for i = 1 to n - 1 do
      a.(i) <- f s
    done;
    a
  end

let read_option s f = if read_bool s then Some (f s) else None

let read_pair s fa fb =
  let a = fa s in
  let b = fb s in
  (a, b)

let encode writer v =
  let b = sink () in
  writer v b;
  contents b

let decode reader data =
  let s = source data in
  let v = reader s in
  if not (at_end s) then
    decode_error "decode: %d trailing bytes" (remaining s);
  v
