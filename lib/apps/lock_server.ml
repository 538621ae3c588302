module R = Rex_core

type entry = { mutable size : int; mutable lease : int; mutable generation : int }

(* CPU time per payload byte of a CREATE or UPDATE. *)
let byte_cost = 1e-9

let factory ?(slices = 128) ?(op_cost = 8e-6) () : R.App.factory =
 fun api ->
  let namespace = R.Api.rwlock api "ls.namespace" in
  let slice_locks =
    Array.init slices (fun i -> R.Api.rwlock api (Printf.sprintf "ls.slice%d" i))
  in
  let tables : (string, entry) Hashtbl.t array =
    Array.init slices (fun _ -> Hashtbl.create 64)
  in
  let slice_of path = Hashtbl.hash path mod slices in
  let execute ~request =
    R.Api.work api op_cost;
    match Util.words request with
    | [ "RENEW"; path ] ->
      let i = slice_of path in
      Rexsync.Rwlock.with_rd namespace (fun () ->
          Rexsync.Rwlock.with_wr slice_locks.(i) (fun () ->
              match Hashtbl.find_opt tables.(i) path with
              | Some e ->
                e.lease <- e.lease + 1;
                Printf.sprintf "LEASE %d" e.lease
              | None -> "ERR:no-such-lock"))
    | [ "CREATE"; path; size ] | [ "CREATE"; path; size; _ ] ->
      let i = slice_of path in
      let size = int_of_string size in
      R.Api.work api (byte_cost *. float_of_int size);
      Rexsync.Rwlock.with_wr namespace (fun () ->
          Rexsync.Rwlock.with_wr slice_locks.(i) (fun () ->
              if Hashtbl.mem tables.(i) path then "ERR:exists"
              else begin
                Hashtbl.replace tables.(i) path
                  { size; lease = 1; generation = 1 };
                "OK"
              end))
    | [ "UPDATE"; path; size ] | [ "UPDATE"; path; size; _ ] ->
      let i = slice_of path in
      let size = int_of_string size in
      R.Api.work api (byte_cost *. float_of_int size);
      Rexsync.Rwlock.with_rd namespace (fun () ->
          Rexsync.Rwlock.with_wr slice_locks.(i) (fun () ->
              match Hashtbl.find_opt tables.(i) path with
              | Some e ->
                e.size <- size;
                e.generation <- e.generation + 1;
                Printf.sprintf "GEN %d" e.generation
              | None ->
                Hashtbl.replace tables.(i) path
                  { size; lease = 1; generation = 1 };
                "GEN 1"))
    | [ "READ"; path ] ->
      let i = slice_of path in
      Rexsync.Rwlock.with_rd namespace (fun () ->
          Rexsync.Rwlock.with_rd slice_locks.(i) (fun () ->
              match Hashtbl.find_opt tables.(i) path with
              | Some e -> Printf.sprintf "SIZE %d GEN %d" e.size e.generation
              | None -> "ERR:no-such-lock"))
    | _ -> "ERR:bad-request"
  in
  (* Read-only requests take the same readers-writer locks natively
     (hybrid execution, §4), so query throughput interacts with the
     update load exactly as in Fig. 9. *)
  let query ~request =
    match Util.words request with
    | [ "READ"; path ] | [ "GET"; path ] ->
      R.Api.work api op_cost;
      let i = slice_of path in
      Rexsync.Rwlock.with_rd namespace (fun () ->
          Rexsync.Rwlock.with_rd slice_locks.(i) (fun () ->
              match Hashtbl.find_opt tables.(i) path with
              | Some e ->
                Printf.sprintf "SIZE %d GEN %d LEASE %d" e.size e.generation
                  e.lease
              | None -> "ERR:no-such-lock"))
    | _ -> "ERR:bad-query"
  in
  let bindings () =
    Array.to_list tables
    |> List.concat_map (fun tbl ->
           Hashtbl.fold
             (fun k e acc -> (k, (e.size, e.lease, e.generation)) :: acc)
             tbl [])
    |> List.sort compare
  in
  {
    R.App.name = "lock-server";
    execute;
    query;
    write_checkpoint =
      (fun sink ->
        Codec.write_list sink
          (fun b (k, (size, lease, generation)) ->
            Codec.write_string b k;
            Codec.write_uvarint b size;
            Codec.write_uvarint b lease;
            Codec.write_uvarint b generation)
          (bindings ()));
    read_checkpoint =
      (fun src ->
        Array.iter Hashtbl.reset tables;
        let entries =
          Codec.read_list src (fun s ->
              let k = Codec.read_string s in
              let size = Codec.read_uvarint s in
              let lease = Codec.read_uvarint s in
              let generation = Codec.read_uvarint s in
              (k, (size, lease, generation)))
        in
        List.iter
          (fun (k, (size, lease, generation)) ->
            Hashtbl.replace tables.(slice_of k) k { size; lease; generation })
          entries);
    digest = (fun () -> string_of_int (Hashtbl.hash (bindings ())));
  }
