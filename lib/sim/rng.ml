(* The 64-bit state lives unboxed in an 8-byte buffer, so advancing it
   allocates nothing; the draw functions are inlined so their int64 and
   float results stay unboxed too.  Every simulated event and message
   draws from a generator. *)
type t = { state : Bytes.t; mutable owner : int }

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let unpinned = -1

let of_state z =
  let state = Bytes.create 8 in
  Bytes.set_int64_ne state 0 z;
  { state; owner = unpinned }

let create seed = of_state (mix64 (Int64.of_int seed))

let pin t = t.owner <- (Domain.self () :> int)

(* The state advance is not atomic: a generator shared across domains
   would silently tear and destroy per-seed reproducibility.  A pinned
   generator (engine roots, backend roots) therefore refuses draws from
   any other domain — [split] on the owning domain is the only supported
   cross-domain handoff. *)
let check t =
  if t.owner >= 0 && t.owner <> (Domain.self () :> int) then
    invalid_arg
      "Rng: pinned generator drawn from another domain; Rng.split on the \
       owning domain is the only cross-domain handoff"

let[@inline] bits64 t =
  check t;
  let z = Int64.add (Bytes.get_int64_ne t.state 0) golden_gamma in
  Bytes.set_int64_ne t.state 0 z;
  mix64 z

let split t = of_state (bits64 t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free modulo is fine here: bounds are tiny relative to 2^62. *)
  Int64.to_int (Int64.rem (Int64.shift_right_logical (bits64 t) 2) (Int64.of_int bound))

let[@inline] float t bound =
  let mantissa = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (mantissa /. 9007199254740992.0)

let bool t = Int64.logand (bits64 t) 1L = 1L

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | l -> List.nth l (int t (List.length l))

let exponential t ~mean =
  let u = float t 1.0 in
  -.mean *. log (1.0 -. u)
