type t = {
  epoch : int;
  vnodes : int;
  groups : int list; (* sorted, distinct *)
  ring : (int * int) array; (* (point, group), sorted by point *)
}

(* FNV-1a over 64 bits, then a murmur3-style finalizer, folded to a
   non-negative OCaml int.  Stable across runs and platforms (unlike
   [Hashtbl.hash] it is specified here), which keeps shard placement
   part of the deterministic-seed contract.  The finalizer matters: raw
   FNV-1a only avalanches a byte's entropy into the low ~48 bits, and
   ring placement compares hashes from the top bits down, so without it
   the near-identical vnode labels cluster and the ring splits the key
   space wildly unevenly. *)
let hash s =
  let prime = 0x100000001b3L in
  let h = ref (-3750763034362895579L) (* 0xcbf29ce484222325 *) in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime)
    s;
  let mix h =
    let h = Int64.logxor h (Int64.shift_right_logical h 33) in
    let h = Int64.mul h 0xff51afd7ed558ccdL in
    let h = Int64.logxor h (Int64.shift_right_logical h 33) in
    let h = Int64.mul h 0xc4ceb9fe1a85ec53L in
    Int64.logxor h (Int64.shift_right_logical h 33)
  in
  Int64.to_int (Int64.shift_right_logical (mix !h) 1)

let point ~group ~vnode = hash (Printf.sprintf "shard-%d#%d" group vnode)

let build_ring ~vnodes groups =
  let ring =
    List.concat_map
      (fun g -> List.init vnodes (fun v -> (point ~group:g ~vnode:v, g)))
      groups
    |> Array.of_list
  in
  Array.sort compare ring;
  ring

let create ?(vnodes = 64) ~groups () =
  if groups = [] then invalid_arg "Shard_map.create: no groups";
  if vnodes <= 0 then invalid_arg "Shard_map.create: vnodes";
  let groups = List.sort_uniq compare groups in
  { epoch = 0; vnodes; groups; ring = build_ring ~vnodes groups }

let epoch t = t.epoch
let vnodes t = t.vnodes
let groups t = t.groups
let n_groups t = List.length t.groups
let ring_size t = Array.length t.ring

let contains t g = List.mem g t.groups

(* First ring point at or after the key's hash, wrapping. *)
let group_of t key =
  let h = hash key in
  let ring = t.ring in
  let n = Array.length ring in
  (* binary search: smallest i with fst ring.(i) >= h *)
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fst ring.(mid) >= h then hi := mid else lo := mid + 1
  done;
  snd ring.(if !lo = n then 0 else !lo)

let add_group t g =
  if contains t g then invalid_arg "Shard_map.add_group: group exists";
  let groups = List.sort_uniq compare (g :: t.groups) in
  { epoch = t.epoch + 1; vnodes = t.vnodes; groups;
    ring = build_ring ~vnodes:t.vnodes groups }

let remove_group t g =
  if not (contains t g) then invalid_arg "Shard_map.remove_group: no such group";
  let groups = List.filter (fun x -> x <> g) t.groups in
  if groups = [] then invalid_arg "Shard_map.remove_group: last group";
  { epoch = t.epoch + 1; vnodes = t.vnodes; groups;
    ring = build_ring ~vnodes:t.vnodes groups }

(* Wire spec: everything needed to reconstruct the map — including the
   epoch, which ring geometry alone cannot carry.  Attached to shard
   redirect replies so a stale router can refresh without a directory
   service. *)
let encode_spec t =
  Printf.sprintf "e%dv%dg%s" t.epoch t.vnodes
    (String.concat "," (List.map string_of_int t.groups))

(* A spec arrives on every shard reply, so it must not be able to ask
   for an arbitrary ring: the ring's size is bounded, and with it the
   vnodes and the groups. *)
let max_ring = 1 lsl 16

let decode_spec s =
  let parse_int str = int_of_string_opt str in
  match String.index_opt s 'v' with
  | Some vi when String.length s > 0 && s.[0] = 'e' -> (
    match String.index_from_opt s vi 'g' with
    | Some gi -> (
      let epoch = parse_int (String.sub s 1 (vi - 1)) in
      let vnodes = parse_int (String.sub s (vi + 1) (gi - vi - 1)) in
      let groups =
        String.sub s (gi + 1) (String.length s - gi - 1)
        |> String.split_on_char ','
        |> List.map parse_int
      in
      match (epoch, vnodes) with
      | Some epoch, Some vnodes
        when epoch >= 0 && vnodes > 0 && vnodes <= max_ring
             && groups <> []
             && List.for_all (function Some g -> g >= 0 | None -> false) groups
        ->
        let groups = List.sort_uniq compare (List.filter_map Fun.id groups) in
        if List.length groups * vnodes > max_ring then None
        else Some { epoch; vnodes; groups; ring = build_ring ~vnodes groups }
      | _ -> None)
    | None -> None)
  | _ -> None

let shares t keys =
  let counts = Hashtbl.create 8 in
  List.iter (fun g -> Hashtbl.replace counts g 0) t.groups;
  List.iter
    (fun k ->
      let g = group_of t k in
      Hashtbl.replace counts g (Hashtbl.find counts g + 1))
    keys;
  List.map (fun g -> (g, Hashtbl.find counts g)) t.groups
