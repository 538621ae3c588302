type op = {
  o_req : string;
  o_resp : string option;
  o_must : bool;
  o_inv : float;
  o_ret : float;
}

(* Model state within a configuration; Bot = unknown (late-tracked key),
   resolvable only through Spec.pin. *)
type mstate = Bot | St of string

type cset = {
  next_id : int;  (* ids handed to ops of the next window *)
  pool : (int * op) list;  (* undecided ops referenced by some cfg *)
  cfgs : (mstate * int list) list;  (* pending ids sorted ascending *)
}

type error = Nonlin of string | Limit of string

let make ?(bot = false) (model : Spec.t) =
  {
    next_id = 0;
    pool = [];
    cfgs = [ ((if bot then Bot else St model.Spec.init), []) ];
  }

let cardinal t = List.length t.cfgs

let state_key = function Bot -> "\001" | St s -> "\000" ^ s

exception Out_of_steps

let default_max_steps = 2_000_000
let default_max_configs = 4096
let pending_cap = 48

(* Exhaustive Wing–Gill search over one window from one start
   configuration, emitting every reachable configuration in which all
   finite-return ops have been linearized.  The classic rule: op [o] may
   linearize next iff no not-yet-linearized op returned strictly before
   [o] was invoked (returns tie-broken after invokes, as in Lin). *)
let run_from (model : Spec.t) ~steps ~max_steps ~emit st0
    (all : (int * op) array) =
  let n = Array.length all in
  let donev = Array.make n false in
  let finite = Array.map (fun (_, o) -> o.o_ret < Float.infinity) all in
  let rem0 = Array.fold_left (fun a f -> if f then a + 1 else a) 0 finite in
  let bits = Bytes.make ((n + 7) / 8) '\000' in
  let set_bit i =
    let b = Char.code (Bytes.get bits (i lsr 3)) in
    Bytes.set bits (i lsr 3) (Char.chr (b lor (1 lsl (i land 7))))
  and clear_bit i =
    let b = Char.code (Bytes.get bits (i lsr 3)) in
    Bytes.set bits (i lsr 3) (Char.chr (b land lnot (1 lsl (i land 7))))
  in
  let visited : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  let emit_here st =
    let ids = ref [] in
    for i = n - 1 downto 0 do
      if not donev.(i) then ids := fst all.(i) :: !ids
    done;
    emit st (List.sort compare !ids)
  in
  let rec go st rem =
    incr steps;
    if !steps > max_steps then raise Out_of_steps;
    if rem = 0 then emit_here st;
    let min_ret = ref Float.infinity in
    for i = 0 to n - 1 do
      if not donev.(i) then begin
        let _, o = all.(i) in
        if o.o_ret < !min_ret then min_ret := o.o_ret
      end
    done;
    for i = 0 to n - 1 do
      if not donev.(i) then begin
        let _, o = all.(i) in
        if o.o_inv <= !min_ret then begin
          let next =
            match st with
            | St s -> (
              match model.Spec.apply s o.o_req with
              | None -> None  (* unrecognized: filtered by callers *)
              | Some (s', resp) ->
                let ok =
                  match o.o_resp with None -> true | Some r -> r = resp
                in
                if ok then Some (St s') else None)
            | Bot -> (
              (* Unknown state: only an op whose observed response pins
                 the post-state can linearize. *)
              match o.o_resp with
              | Some r -> (
                match model.Spec.pin o.o_req r with
                | Some s' -> Some (St s')
                | None -> None)
              | None -> None)
          in
          match next with
          | None -> ()
          | Some st' ->
            donev.(i) <- true;
            set_bit i;
            let key = Bytes.to_string bits ^ state_key st' in
            if not (Hashtbl.mem visited key) then begin
              Hashtbl.add visited key ();
              go st' (rem - if finite.(i) then 1 else 0)
            end;
            donev.(i) <- false;
            clear_bit i
        end
      end
    done
  in
  go st0 rem0

let advance ?(max_steps = default_max_steps)
    ?(max_configs = default_max_configs) (model : Spec.t) cs
    (window : op array) =
  let nw = Array.length window in
  if nw = 0 then Ok cs
  else begin
    let base = cs.next_id in
    let out : (string, mstate * int list) Hashtbl.t = Hashtbl.create 64 in
    let steps = ref 0 in
    let emit st ids =
      let k =
        state_key st ^ "\000"
        ^ String.concat "," (List.map string_of_int ids)
      in
      if not (Hashtbl.mem out k) then Hashtbl.replace out k (st, ids)
    in
    match
      List.iter
        (fun (st, pend) ->
          let pend_ops =
            List.map (fun id -> (id, List.assoc id cs.pool)) pend
          in
          let all =
            Array.append
              (Array.mapi (fun i o -> (base + i, o)) window)
              (Array.of_list pend_ops)
          in
          run_from model ~steps ~max_steps ~emit st all)
        cs.cfgs
    with
    | exception Out_of_steps ->
      Error
        (Limit
           (Printf.sprintf "step budget %d exhausted on a %d-op window"
              max_steps nw))
    | () ->
      if Hashtbl.length out = 0 then
        Error
          (Nonlin
             (Printf.sprintf
                "window of %d ops (first invoke t=%g): no linearization \
                 from any of %d carried configs"
                nw window.(0).o_inv (List.length cs.cfgs)))
      else begin
        let cfgs =
          Hashtbl.fold (fun _ c acc -> c :: acc) out [] |> List.sort compare
        in
        let worst =
          List.fold_left (fun a (_, p) -> max a (List.length p)) 0 cfgs
        in
        if List.length cfgs > max_configs then
          Error
            (Limit
               (Printf.sprintf "carried config set %d exceeds cap %d"
                  (List.length cfgs) max_configs))
        else if worst > pending_cap then
          Error
            (Limit
               (Printf.sprintf "undecided-op carry %d exceeds cap %d" worst
                  pending_cap))
        else begin
          let used : (int, unit) Hashtbl.t = Hashtbl.create 32 in
          List.iter
            (fun (_, p) -> List.iter (fun id -> Hashtbl.replace used id ()) p)
            cfgs;
          let pool =
            List.filter
              (fun (id, _) -> Hashtbl.mem used id)
              (List.append
                 (List.init nw (fun i -> (base + i, window.(i))))
                 cs.pool)
          in
          Ok { next_id = base + nw; pool; cfgs }
        end
      end
  end

let close cs =
  let free (_, pend) =
    List.for_all (fun id -> not (List.assoc id cs.pool).o_must) pend
  in
  if List.exists free cs.cfgs then Ok ()
  else
    Error
      (Nonlin
         "end of history: every carried config retains a \
          committed-but-unreturned op that never linearized")

(* ------------------------------------------------------------------ *)
(* Whole-history sweep: Lin.check's preprocessing, windowed search.    *)

type result_ = {
  verdict : Lin.verdict;
  checked_ops : int;
  dropped_ambiguous_reads : int;
  skipped_unrecognized : int;
  partitions : int;
  windows : int;
  max_window_ops : int;
  max_configs_carried : int;
}

let check ?(max_steps = default_max_steps)
    ?(max_configs = default_max_configs) (model : Spec.t) entries =
  let skipped = ref 0 and dropped_reads = ref 0 and checked = ref 0 in
  let parts : (string, op list ref) Hashtbl.t = Hashtbl.create 16 in
  let add key o =
    match Hashtbl.find_opt parts key with
    | Some l -> l := o :: !l
    | None -> Hashtbl.replace parts key (ref [ o ])
  in
  List.iter
    (fun (e : History.entry) ->
      match model.Spec.apply model.Spec.init e.request with
      | None -> incr skipped
      | Some _ -> (
        let key = Option.value (model.Spec.key_of e.request) ~default:"" in
        match e.fate with
        | History.Returned r ->
          incr checked;
          add key
            { o_req = e.request; o_resp = Some r; o_must = true;
              o_inv = e.invoke; o_ret = e.return_ }
        | History.Resolved r ->
          incr checked;
          add key
            { o_req = e.request; o_resp = Some r; o_must = true;
              o_inv = e.invoke; o_ret = Float.infinity }
        | History.Timed_out ->
          if model.Spec.is_read e.request then incr dropped_reads
          else begin
            incr checked;
            add key
              { o_req = e.request; o_resp = None; o_must = false;
                o_inv = e.invoke; o_ret = Float.infinity }
          end))
    entries;
  let keys =
    Hashtbl.fold (fun k _ acc -> k :: acc) parts [] |> List.sort compare
  in
  let windows = ref 0 and max_win = ref 0 and max_cfgs = ref 0 in
  let witnesses = ref [] and limited = ref false in
  List.iter
    (fun k ->
      if not !limited then begin
        let ops =
          List.sort
            (fun a b -> compare (a.o_inv, a.o_ret) (b.o_inv, b.o_ret))
            !(Hashtbl.find parts k)
          |> Array.of_list
        in
        let n = Array.length ops in
        let cs = ref (make model) in
        let fail = ref false in
        let witness msg =
          let label = if k = "" then model.Spec.name else k in
          witnesses := Printf.sprintf "partition %S: %s" label msg :: !witnesses;
          fail := true
        in
        let flush lo hi =
          (* window = ops[lo..hi-1] *)
          if hi > lo && not !fail then begin
            let w = Array.sub ops lo (hi - lo) in
            incr windows;
            max_win := max !max_win (Array.length w);
            match advance ~max_steps ~max_configs model !cs w with
            | Ok cs' ->
              cs := cs';
              max_cfgs := max !max_cfgs (cardinal cs')
            | Error (Nonlin msg) -> witness msg
            | Error (Limit _) ->
              limited := true;
              fail := true
          end
        in
        let start = ref 0 in
        let frontier = ref Float.neg_infinity in
        for i = 0 to n - 1 do
          if (not !fail) && i > !start && ops.(i).o_inv > !frontier then begin
            flush !start i;
            start := i
          end;
          if ops.(i).o_ret < Float.infinity then
            frontier := Float.max !frontier ops.(i).o_ret
        done;
        flush !start n;
        if not !fail then begin
          match close !cs with
          | Ok () -> ()
          | Error (Nonlin msg) -> witness msg
          | Error (Limit _) -> limited := true
        end
      end)
    keys;
  let verdict =
    if !limited then Lin.Limit
    else if !witnesses = [] then Lin.Linearizable
    else Lin.Non_linearizable (List.rev !witnesses)
  in
  {
    verdict;
    checked_ops = !checked;
    dropped_ambiguous_reads = !dropped_reads;
    skipped_unrecognized = !skipped;
    partitions = List.length keys;
    windows = !windows;
    max_window_ops = !max_win;
    max_configs_carried = !max_cfgs;
  }

let pp_result ppf r =
  let v =
    match r.verdict with
    | Lin.Linearizable -> "linearizable"
    | Lin.Non_linearizable w ->
      Printf.sprintf "NON-LINEARIZABLE (%d partition%s)" (List.length w)
        (if List.length w = 1 then "" else "s")
    | Lin.Limit -> "UNDECIDED (budget exhausted)"
  in
  Format.fprintf ppf
    "%s: %d ops, %d partitions, %d windows (max %d ops, %d configs carried)"
    v r.checked_ops r.partitions r.windows r.max_window_ops
    r.max_configs_carried
