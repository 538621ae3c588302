type ckpt = int * Trace.Cut.t

(* A value is a v1 trace delta followed by the optional checkpoint
   request. *)
let write_ckpt b ckpt =
  Codec.write_option b
    (fun b (seq, cut) ->
      Codec.write_uvarint b seq;
      Trace.Cut.write b cut)
    ckpt

let read_ckpt s =
  let ckpt =
    Codec.read_option s (fun s ->
        let seq = Codec.read_uvarint s in
        let cut = Trace.Cut.read s in
        (seq, cut))
  in
  if not (Codec.at_end s) then
    raise
      (Codec.Decode_error
         (Printf.sprintf "Proposal: %d trailing bytes" (Codec.remaining s)));
  ckpt

let encode_next tr cursor ~upto ckpt =
  let b = Codec.sink ~initial_capacity:256 () in
  Trace.Delta.write_next b ~upto tr cursor;
  write_ckpt b ckpt;
  Codec.contents b

let apply tr value =
  let s = Codec.source value in
  match Trace.Delta.read_apply s tr with
  | Ok upto -> Ok (upto, read_ckpt s)
  | Error _ as e -> e

let upto value =
  let s = Codec.source value in
  let upto = Trace.Delta.read_upto s in
  ignore (read_ckpt s);
  upto
