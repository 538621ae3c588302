module R = Rex_core

(* CPU time spent under the metadata lock by each update. *)
let meta_cost = 1.5e-6

let factory ?(slices = 1024) ?(op_cost = 7e-6) () : R.App.factory =
 fun api ->
  let meta_lock = R.Api.lock api "kc.meta" in
  let flush_cond = R.Api.cond api "kc.flush" in
  let slice_locks =
    Array.init slices (fun i -> R.Api.rwlock api (Printf.sprintf "kc.slice%d" i))
  in
  let tables : (string, string) Hashtbl.t array =
    Array.init slices (fun _ -> Hashtbl.create 16)
  in
  let record_count = ref 0 in
  let dirty_since_flush = ref 0 in
  let slice_of key = Hashtbl.hash key mod slices in
  (* A background "auto-sync" task: write back accumulated updates and
     release any stalled writers. *)
  let sync_threshold = 2048 in
  let hard_limit = 8 * sync_threshold in
  R.Api.add_timer api ~name:"autosync" ~interval:2e-3 (fun () ->
      Rexsync.Lock.with_lock meta_lock (fun () ->
          if !dirty_since_flush >= sync_threshold then begin
            (* write-back cost proportional to dirtiness *)
            R.Api.work api (float_of_int !dirty_since_flush *. 2e-8);
            dirty_since_flush := 0;
            Rexsync.Condvar.broadcast flush_cond
          end));
  let execute ~request =
    match Util.words request with
    | [ "SET"; key; value ] ->
      let i = slice_of key in
      R.Api.work api (op_cost /. 2.);
      Rexsync.Rwlock.with_wr slice_locks.(i) (fun () ->
          R.Api.work api (op_cost /. 2.);
          let fresh = not (Hashtbl.mem tables.(i) key) in
          Hashtbl.replace tables.(i) key value;
          Rexsync.Lock.with_lock meta_lock (fun () ->
              R.Api.work api meta_cost;
              if fresh then incr record_count;
              (* stall writers when auto-sync falls too far behind *)
              while !dirty_since_flush >= hard_limit do
                Rexsync.Condvar.wait flush_cond meta_lock
              done;
              incr dirty_since_flush));
      "OK"
    | [ "DEL"; key ] ->
      let i = slice_of key in
      R.Api.work api (op_cost /. 2.);
      Rexsync.Rwlock.with_wr slice_locks.(i) (fun () ->
          R.Api.work api (op_cost /. 2.);
          let existed = Hashtbl.mem tables.(i) key in
          Hashtbl.remove tables.(i) key;
          Rexsync.Lock.with_lock meta_lock (fun () ->
              R.Api.work api meta_cost;
              if existed then decr record_count;
              incr dirty_since_flush));
      "OK"
    | [ "GET"; key ] ->
      let i = slice_of key in
      R.Api.work api (op_cost /. 2.);
      Rexsync.Rwlock.with_rd slice_locks.(i) (fun () ->
          R.Api.work api (op_cost /. 2.);
          Option.value (Hashtbl.find_opt tables.(i) key) ~default:"NOTFOUND")
    | [ "COUNT" ] -> string_of_int !record_count
    | "MGET" :: keys ->
      (* short scan: sequential point reads (YCSB-E rendering) *)
      let parts =
        List.map
          (fun key ->
            let i = slice_of key in
            R.Api.work api (op_cost /. 4.);
            Rexsync.Rwlock.with_rd slice_locks.(i) (fun () ->
                Option.value (Hashtbl.find_opt tables.(i) key)
                  ~default:"NOTFOUND"))
          keys
      in
      String.concat "," parts
    | [ "RMW"; key; value ] ->
      (* read-modify-write under one writer section (YCSB-F) *)
      let i = slice_of key in
      R.Api.work api (op_cost /. 2.);
      Rexsync.Rwlock.with_wr slice_locks.(i) (fun () ->
          R.Api.work api (op_cost /. 2.);
          let old = Option.value (Hashtbl.find_opt tables.(i) key) ~default:"" in
          let fresh = old = "" in
          Hashtbl.replace tables.(i) key value;
          Rexsync.Lock.with_lock meta_lock (fun () ->
              R.Api.work api meta_cost;
              if fresh then incr record_count;
              while !dirty_since_flush >= hard_limit do
                Rexsync.Condvar.wait flush_cond meta_lock
              done;
              incr dirty_since_flush);
          if fresh then "RMW:new" else "RMW:ok")
    | _ -> "ERR:bad-request"
  in
  let query ~request =
    match Util.words request with
    | [ "GET"; key ] ->
      let i = slice_of key in
      R.Api.work api (op_cost /. 2.);
      Rexsync.Rwlock.with_rd slice_locks.(i) (fun () ->
          R.Api.work api (op_cost /. 2.);
          Option.value (Hashtbl.find_opt tables.(i) key) ~default:"NOTFOUND")
    | [ "COUNT" ] -> string_of_int !record_count
    | _ -> "ERR:bad-query"
  in
  {
    R.App.name = "kyoto";
    execute;
    query;
    write_checkpoint =
      (fun sink ->
        Codec.write_uvarint sink !record_count;
        (* physical context: replayed auto-sync decisions depend on it *)
        Codec.write_uvarint sink !dirty_since_flush;
        Util.write_tables sink tables);
    read_checkpoint =
      (fun src ->
        record_count := Codec.read_uvarint src;
        dirty_since_flush := Codec.read_uvarint src;
        Util.read_tables src ~shard_of:slice_of tables);
    digest =
      (fun () ->
        Printf.sprintf "%d/%s" !record_count (Util.digest_of_tables tables));
  }
