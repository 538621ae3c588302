(* `bench reads`: the linearizable read fast path (leader leases +
   quorum reads) against the ordered read path, swept over read ratio x
   stack on the simulator, plus a domains-backend read mix for the
   execution stage.

   "ordered" routes every request — reads included — through the normal
   client path (consensus slot, commit, reply); "fast" routes reads
   through Client.query, which the frontend serves locally under a live
   lease, via a majority read-index round otherwise.  The obs counters
   under subsystem `frontend` break down which route each read took, so
   the table can prove the fast path actually ran (and the smoke
   assertion demands it beats ordered on a >=90%-read mix). *)

open Sim
module R = Rex_core

type point = {
  throughput : float;
  reads : int;
  fast_lease : int;
  fast_quorum : int;
  ordered_falls : int;
}

let n_keys = 16

let frontend_total obs ~nodes name =
  List.fold_left
    (fun acc n ->
      acc
      + Obs.Metric.value
          (Obs.counter obs ~subsystem:"frontend"
             ~labels:[ ("node", string_of_int n) ]
             name))
    0 nodes

(* Closed-loop clients on the client node: each op is one completed
   round trip (call for writes and ordered reads, query for fast
   reads).  The callbacks get the fiber's index so each fiber can own
   its client handle.  Returns once every client finished its ops. *)
let drive eng ~node ~clients ~ops ~ratio ~seed
    ~(read : int -> string -> unit) ~(write : int -> string -> unit) =
  let finished = ref 0 in
  let t_end = ref 0. in
  let t0 = Engine.clock eng in
  for c = 0 to clients - 1 do
    ignore
      (Engine.spawn eng ~node ~name:(Printf.sprintf "reads-client%d" c)
         (fun () ->
           let rng = Rng.create (seed + (c * 7919) + 1) in
           for i = 0 to ops - 1 do
             let key = Printf.sprintf "k%d" (Rng.int rng n_keys) in
             if Rng.float rng 1.0 < ratio then read c ("GET " ^ key)
             else write c (Printf.sprintf "SET %s v%d.%d" key c i)
           done;
           incr finished;
           (* dt is the last completion, not the pump's slice size *)
           if !finished = clients then t_end := Engine.clock eng))
  done;
  if
    not
      (Harness.pump eng
         ~done_p:(fun () -> !finished = clients)
         ~virtual_deadline:3600.)
  then Harness.fail "reads: run did not finish";
  !t_end -. t0

let mk_point obs ~nodes ~total ~dt ~reads =
  {
    throughput = float_of_int total /. dt;
    reads;
    fast_lease = frontend_total obs ~nodes "reads_fast_lease";
    fast_quorum = frontend_total obs ~nodes "reads_fast_quorum";
    ordered_falls = frontend_total obs ~nodes "reads_ordered_fallback";
  }

(* Run the closed-loop mix against a deployed group: [client ()] makes
   one fiber's client handle. *)
let point eng ~node ~nodes ~client ~seed ~ratio ~fast ~clients ~ops =
  let reads = ref 0 in
  let cl = Array.init clients (fun _ -> client ()) in
  let dt =
    drive eng ~node ~clients ~ops ~ratio ~seed
      ~read:(fun c req ->
        incr reads;
        ignore
          (if fast then R.Client.query cl.(c) req
           else R.Client.call cl.(c) req))
      ~write:(fun c req -> ignore (R.Client.call cl.(c) req))
  in
  mk_point (Engine.obs eng) ~nodes ~total:(clients * ops) ~dt ~reads:!reads

let rex_point ?(seed = 42) ~ratio ~fast ~clients ~ops () =
  let cfg =
    R.Config.make ~replicas:[ 0; 1; 2 ] ~workers:4 ~propose_interval:2e-4 ()
  in
  let c = R.Cluster.launch ~seed cfg (Apps.Kyoto.factory ()) in
  point (R.Cluster.engine c) ~node:(R.Cluster.client_node c)
    ~nodes:(R.Cluster.replica_nodes c)
    ~client:(fun () -> R.Cluster.client c)
    ~seed ~ratio ~fast ~clients ~ops

let smr_point ?(seed = 42) ~ratio ~fast ~clients ~ops () =
  let replicas = [ 0; 1; 2 ] in
  let cfg = R.Config.make ~propose_interval:2e-4 ~replicas () in
  let c =
    R.Log_cluster.create ~seed ~replicas (fun net rpc ~node ~paxos_store ->
        Smr.create net rpc cfg ~node ~paxos_store (Apps.Kyoto.factory ()))
  in
  R.Log_cluster.start c;
  ignore (R.Log_cluster.await_primary ~fallback:5.0 c);
  point (R.Log_cluster.engine c) ~node:(R.Log_cluster.client_node c)
    ~nodes:replicas
    ~client:(fun () -> R.Log_cluster.client c)
    ~seed ~ratio ~fast ~clients ~ops

let fast_hits p = p.fast_lease + p.fast_quorum

let hit_rate p =
  if p.reads = 0 then 0.
  else 100. *. float_of_int (fast_hits p) /. float_of_int p.reads

(* --- Domains backend: the execution-stage analogue.

   There is no replicated cluster on real domains (lib/par has no
   network), so the domains sweep measures what the fast path saves at
   the execution stage: reads that skip the lock/record machinery
   (served from local state, nothing recorded) vs reads pushed through
   the recorded ordered path like any write. *)

let domains_point ~record_reads ~ratio ~ops ~label () =
  let workers = 4 in
  let cores = Domain.recommended_domain_count () in
  let d = Par.Domains.create ~seed:42 ~domains:(min workers cores) () in
  let rt =
    Rexsync.Runtime.create (Par.Domains.backend d) ~node:0 ~slots:workers
  in
  let locks =
    Array.init n_keys (fun i ->
        Rexsync.Lock.create rt (Printf.sprintf "kv%d" i))
  in
  let cells = Array.make n_keys 0 in
  let t0 = Par.Domains.now d in
  for w = 0 to workers - 1 do
    Par.Domains.spawn d ~node:0 ~name:(Printf.sprintf "reads%d" w) (fun () ->
        Rexsync.Runtime.bind_slot rt w;
        let rng = Rng.create (42 + (w * 7919)) in
        for _ = 1 to ops do
          let i = Rng.int rng n_keys in
          if Rng.float rng 1.0 < ratio then
            if record_reads then
              Rexsync.Lock.with_lock locks.(i) (fun () ->
                  ignore (Sys.opaque_identity cells.(i)))
            else ignore (Sys.opaque_identity cells.(i))
          else
            Rexsync.Lock.with_lock locks.(i) (fun () ->
                cells.(i) <- cells.(i) + 1)
        done;
        Rexsync.Runtime.unbind_slot rt)
  done;
  Par.Domains.join d;
  let dt = Par.Domains.now d -. t0 in
  Harness.note_run_obs ~label ~time:(Par.Domains.now d) (Par.Domains.obs d);
  Par.Domains.shutdown d;
  float_of_int (workers * ops) /. dt

let run_domains ?(quick = false) () =
  let ops = if quick then 3_000 else 15_000 in
  Printf.printf
    "\n== reads on domains: execution stage, %d hw cores (wall-clock) ==\n"
    (Domain.recommended_domain_count ());
  Printf.printf "read_ratio\tordered\tfast\tspeedup\n%!";
  List.iter
    (fun ratio ->
      let ordered =
        domains_point ~record_reads:true ~ratio ~ops
          ~label:(Printf.sprintf "reads-domains-ordered-r%g" ratio)
          ()
      in
      let fast =
        domains_point ~record_reads:false ~ratio ~ops
          ~label:(Printf.sprintf "reads-domains-fast-r%g" ratio)
          ()
      in
      Printf.printf "%.2f\t%s\t%s\t%.2fx\n%!" ratio (Harness.fmt_rate ordered)
        (Harness.fmt_rate fast) (fast /. ordered))
    [ 0.5; 0.9; 0.99 ]

let run_sim ?(quick = false) () =
  let clients = 8 in
  let ops = if quick then 60 else 200 in
  let ratios = [ 0.5; 0.9; 0.99 ] in
  Printf.printf
    "\n== reads on sim: fast path (leases + quorum reads) vs ordered ==\n";
  Printf.printf
    "stack\tread_ratio\tordered\tfast\tspeedup\tlease\tquorum\tfallback\thit%%\n%!";
  let at_90 = ref [] in
  List.iter
    (fun (name, point) ->
      List.iter
        (fun ratio ->
          let ordered = point ~ratio ~fast:false ~clients ~ops () in
          let fast = point ~ratio ~fast:true ~clients ~ops () in
          Printf.printf "%s\t%.2f\t%s\t%s\t%.2fx\t%d\t%d\t%d\t%.0f%%\n%!" name
            ratio
            (Harness.fmt_rate ordered.throughput)
            (Harness.fmt_rate fast.throughput)
            (fast.throughput /. ordered.throughput)
            fast.fast_lease fast.fast_quorum fast.ordered_falls
            (hit_rate fast);
          if ratio >= 0.9 && ratio < 0.95 then
            at_90 := (name, ordered, fast) :: !at_90)
        ratios)
    [
      ("rex", fun ~ratio ~fast ~clients ~ops () ->
        rex_point ~ratio ~fast ~clients ~ops ());
      ("smr", fun ~ratio ~fast ~clients ~ops () ->
        smr_point ~ratio ~fast ~clients ~ops ());
    ];
  (* Smoke: on the 90%-read mix the fast path must actually engage (obs
     confirms) and must beat the ordered path. *)
  List.iter
    (fun (name, (ordered : point), (fast : point)) ->
      if fast_hits fast = 0 then
        Harness.fail
          "reads %s: no read took the fast path at 90%% reads (lease=%d \
           quorum=%d)"
          name fast.fast_lease fast.fast_quorum;
      if fast.throughput <= ordered.throughput then
        Harness.fail
          "reads %s: fast path (%.0f/s) did not beat ordered (%.0f/s) at \
           90%% reads"
          name fast.throughput ordered.throughput)
    !at_90

let run ?(quick = false) ?(backend = `Sim) () =
  match backend with
  | `Sim -> run_sim ~quick ()
  | `Domains -> run_domains ~quick ()
