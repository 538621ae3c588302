type gen = Sim.Rng.t -> string

let thumbnail ~n_images rng =
  let img = Sim.Rng.int rng n_images in
  let dim = 64 + (16 * Sim.Rng.int rng 4) in
  Printf.sprintf "THUMB %d %d" img dim

let lock_server ~n_files rng =
  let file = Keygen.path (Sim.Rng.int rng n_files) in
  let r = Sim.Rng.int rng 100 in
  if r < 90 then Printf.sprintf "RENEW %s" file
  else begin
    (* 100 B – 5 KB of file contents travel in the request, as in the
       paper (the shipped log contains client requests). *)
    let size = 100 + Sim.Rng.int rng 4900 in
    let payload = String.make size 'x' in
    if r < 95 then Printf.sprintf "CREATE %s %d %s" file size payload
    else Printf.sprintf "UPDATE %s %d %s" file size payload
  end

let filesystem ~n_files rng =
  let file = Sim.Rng.int rng n_files in
  let block = 16384 in
  let max_off = (128 * 1024 * 1024 / block) - 1 in
  let off = Sim.Rng.int rng max_off * block in
  if Sim.Rng.int rng 5 = 0 then Printf.sprintf "READ %d %d %d" file off block
  else Printf.sprintf "WRITE %d %d %d" file off block

(* Bytes in every SET value. *)
let value_len = 100

let kv ?(n_keys = 1_000_000) ?(read_ratio = 0.5) ?(theta = 0.5) () =
  let zipf = Zipf.create ~n:n_keys ~theta in
  fun rng ->
    let k = Keygen.key (Zipf.sample zipf rng) in
    if Sim.Rng.float rng 1.0 < read_ratio then Printf.sprintf "GET %s" k
    else Printf.sprintf "SET %s %s" k (Keygen.value rng value_len)

let kv_keyed ?(n_keys = 1_000_000) ?(read_ratio = 0.5) ?(theta = 0.5) () =
  let zipf = Zipf.create ~n:n_keys ~theta in
  fun rng ->
    let k = Keygen.key (Zipf.sample zipf rng) in
    if Sim.Rng.float rng 1.0 < read_ratio then (k, Printf.sprintf "GET %s" k)
    else (k, Printf.sprintf "SET %s %s" k (Keygen.value rng value_len))

type ycsb = A | B | C | D | E | F

let ycsb_name = function
  | A -> "A (update heavy)"
  | B -> "B (read mostly)"
  | C -> "C (read only)"
  | D -> "D (read latest)"
  | E -> "E (short scans)"
  | F -> "F (read-modify-write)"

let ycsb ?(n_keys = 1_000_000) w =
  let zipf = Zipf.create ~n:n_keys ~theta:0.99 in
  let inserted = ref n_keys in
  let key_of rng = Keygen.key (Zipf.sample zipf rng) in
  fun rng ->
    match w with
    | A ->
      if Sim.Rng.bool rng then Printf.sprintf "GET %s" (key_of rng)
      else Printf.sprintf "SET %s %s" (key_of rng) (Keygen.value rng value_len)
    | B ->
      if Sim.Rng.int rng 100 < 95 then Printf.sprintf "GET %s" (key_of rng)
      else Printf.sprintf "SET %s %s" (key_of rng) (Keygen.value rng value_len)
    | C -> Printf.sprintf "GET %s" (key_of rng)
    | D ->
      (* read-latest: 5% inserts, reads skewed to the newest keys *)
      if Sim.Rng.int rng 100 < 5 then begin
        incr inserted;
        Printf.sprintf "SET %s %s" (Keygen.key !inserted)
          (Keygen.value rng value_len)
      end
      else
        Printf.sprintf "GET %s"
          (Keygen.key (max 0 (!inserted - Zipf.sample zipf rng)))
    | E ->
      (* short scan: a run of adjacent keys, sent as one multi-get *)
      let start = Zipf.sample zipf rng in
      let len = 1 + Sim.Rng.int rng 8 in
      let keys = List.init len (fun i -> Keygen.key (start + i)) in
      Printf.sprintf "MGET %s" (String.concat " " keys)
    | F ->
      (* read-modify-write on one key *)
      Printf.sprintf "RMW %s %s" (key_of rng) (Keygen.value rng value_len)
