(* The application every stack serves in this benchmark: 4,096 counters
   in the Check.Spec.keyed_counter grammar ("INC k<i> <tag>" returns the
   key's new value, "GET k<i>" its current value), behind 64 stripe
   locks.  It lives here, not in lib/apps, so that no edit outside
   bench/perf can change what the benchmark executes.

   [inc_cost] models CPU per INC: half is spent before taking the stripe
   lock and half while holding it, so parallel stacks overlap the first
   half freely and contend only on the stripe.  GETs cost nothing.

   The digest is a sum of per-counter hashes, updated on every write: it
   is independent of execution order and O(1) to read, so replicas can
   be compared at any time and Eve's per-batch digest stays cheap. *)

module R = Rex_core

let stripes = 64
let keys = 4096
let key_name i = "k" ^ string_of_int i
let inc ~key ~tag = Printf.sprintf "INC %s %s" (key_name key) tag
let get ~key = "GET " ^ key_name key

let key_index k =
  let n = String.length k in
  if n < 2 || k.[0] <> 'k' then None
  else
    match int_of_string_opt (String.sub k 1 (n - 1)) with
    | Some i when i >= 0 && i < keys -> Some i
    | _ -> None

let factory ~inc_cost : R.App.factory =
 fun api ->
  let counts = Array.make keys 0 in
  let locks = Array.init stripes (fun i -> R.Api.lock api ("s" ^ string_of_int i)) in
  let hash i = Hashtbl.hash (i, counts.(i)) in
  let sum = ref 0 in
  let rehash () =
    sum := 0;
    Array.iteri (fun i _ -> sum := !sum + hash i) counts
  in
  rehash ();
  let set i v =
    sum := !sum - hash i;
    counts.(i) <- v;
    sum := !sum + hash i
  in
  let half = inc_cost /. 2. in
  let with_key request f =
    match Check.Spec.words request with
    | ("INC" as op) :: k :: _ | ("GET" as op) :: [ k ] -> (
      match key_index k with Some i -> f op i | None -> "ERR:bad-key")
    | _ -> "ERR:bad-request"
  in
  {
    R.App.name = "perf-counter";
    execute =
      (fun ~request ->
        with_key request (fun op i ->
            if op = "INC" && half > 0. then R.Api.work api half;
            Rexsync.Lock.with_lock locks.(i land (stripes - 1)) (fun () ->
                if op = "INC" then begin
                  if half > 0. then R.Api.work api half;
                  set i (counts.(i) + 1)
                end;
                string_of_int counts.(i))));
    query =
      (fun ~request ->
        with_key request (fun op i ->
            if op = "GET" then string_of_int counts.(i) else "ERR:bad-query"));
    write_checkpoint = (fun sink -> Array.iter (Codec.write_uvarint sink) counts);
    read_checkpoint =
      (fun src ->
        Array.iteri (fun i _ -> counts.(i) <- Codec.read_uvarint src) counts;
        rehash ());
    digest = (fun () -> string_of_int !sum);
  }

(* Two requests conflict iff they name the same key (sched stacks, Eve). *)
let conflict req =
  match Check.Spec.words req with
  | "INC" :: k :: _ | [ "GET"; k ] -> [ k ]
  | _ -> []
