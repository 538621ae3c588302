(* Scale-out benchmark for the sharded fleet (lib/shard).

   Sweeps shard count x key skew over a key/value application: each
   point builds a fleet of independent 3-replica Rex groups behind the
   consistent-hash router and drives it closed-loop from a shared pool
   of client fibers.  Uniform keys should scale committed throughput
   near-linearly with shard count; a zipf hotspot collapses the load
   onto few shards and the imbalance column shows it.  A second section
   kills one shard's primary mid-run and prints a per-shard timeline:
   the victim shard dips through its leader election while the others
   are untouched (one virtual clock, so "untouched" is exact, not
   statistical).

   Exits non-zero if any shard commits nothing, so CI can run
   `shard --quick --shards 2` as a smoke test. *)

open Sim
module R = Rex_core
module Fleet = Shard.Fleet
module Router = Shard.Router
module Shard_map = Shard.Shard_map

let app_names = [ "leveldb"; "kyoto"; "memcache" ]

(* Raise per-op execution cost so that a single 8-worker group
   saturates at a few thousand req/s and the agreement stage is not the
   bottleneck — scaling the execute stage is the point of sharding. *)
let factory_of = function
  | "leveldb" -> fun () -> Apps.Leveldb.factory ~op_cost:1.5e-3 ()
  | "kyoto" -> fun () -> Apps.Kyoto.factory ~op_cost:1.5e-3 ()
  | "memcache" -> fun () -> Apps.Memcache.factory ~op_cost:1.5e-3 ()
  | other ->
    invalid_arg
      (Printf.sprintf "shard bench: unknown app %S (choose from %s)" other
         (String.concat ", " app_names))

let config ~group:_ ~replicas =
  R.Config.make ~workers:8 ~propose_interval:2e-4 ~replicas ()

(* The failover fleet checkpoints periodically so a restarted replica
   rejoins off a recent checkpoint instead of replaying the whole log
   (which would hold the shard in its flow-control stall for the rest
   of the timeline). *)
let failover_config ~group:_ ~replicas =
  R.Config.make ~workers:8 ~propose_interval:2e-4
    ~checkpoint_interval:(Some 0.4) ~replicas ()

let make_fleet ?(config = config) ~app ~shards ~seed () =
  let factory = factory_of app in
  let fleet =
    Fleet.create ~seed ~groups:shards ~config (fun ~map ~group ->
        Shard.Partition.factory ~map ~group (factory ()))
  in
  Harness.arm_tracing (Fleet.engine fleet);
  Fleet.start fleet;
  Fleet.await_primaries fleet;
  fleet

type point = {
  shards : int;
  throughput : float;
  imbalance : float;
  redirects : int;
  retries : int;
  dropped : int;
  per_shard : int array;  (* replies over the whole run *)
}

let run_point ~quick ~app ~shards ~theta ~seed ~check =
  let fleet = make_fleet ~app ~shards ~seed () in
  let eng = Fleet.engine fleet in
  let router = Fleet.router fleet in
  let history =
    if not check then None
    else begin
      let h = Check.History.create eng in
      Array.iter
        (fun c ->
          Array.iter
            (fun s -> Check.History.wire h [ R.Server.frontend s ])
            (R.Cluster.servers c))
        (Fleet.clusters fleet);
      Some h
    end
  in
  let gen = Workload.Mix.kv_keyed ~n_keys:20_000 ~read_ratio:0.5 ~theta () in
  let rng = Rng.create (seed + 17) in
  let n = (if quick then 1200 else 5000) * shards in
  let warmup = n / 5 in
  let completed = ref 0 and dropped = ref 0 and launched = ref 0 in
  let t_warm = ref 0. and t_end = ref 0. in
  let warm_hit = ref false in
  let note_done () =
    let fin = !completed + !dropped in
    if fin = warmup then begin
      t_warm := Engine.clock eng;
      warm_hit := true
    end;
    if fin = n then t_end := Engine.clock eng
  in
  (* One shared driver pool, large enough to keep 8 shards saturated;
     using the same pool size at every shard count keeps the offered
     load comparable across the sweep. *)
  for d = 0 to 127 do
    ignore
      (Engine.spawn eng ~node:(Fleet.client_node fleet)
         ~name:(Printf.sprintf "driver%d" d)
         (fun () ->
           while !launched < n do
             incr launched;
             let key, request = gen rng in
             let call () = Router.call router ~key request in
             let resp =
               match history with
               | None -> call ()
               | Some h ->
                 Check.History.record h ~client:d ~request call
             in
             (match resp with
             | Some _ -> incr completed
             | None -> incr dropped);
             note_done ()
           done))
  done;
  ignore
    (Harness.pump ~step:0.25 eng
       ~done_p:(fun () -> !completed + !dropped >= n)
       ~virtual_deadline:(Engine.clock eng +. 600.));
  Harness.note_run
    ~label:(Printf.sprintf "shard-%s-s%d-z%.2f" app shards theta)
    eng;
  if !completed + !dropped < n || not !warm_hit then
    Harness.fail
      "FAIL: shard sweep point (%d shards, theta %.2f) timed out (%d/%d done)"
      shards theta (!completed + !dropped) n;
  let per_shard = Array.init shards (Fleet.replies fleet) in
  Array.iteri
    (fun g r ->
      if r = 0 then
        Harness.fail "FAIL: shard %d committed nothing (%d shards, theta %.2f)"
          g shards theta)
    per_shard;
  Fleet.run_for fleet 1.0;
  Fleet.check_no_divergence fleet;
  if not (Fleet.converged fleet) then
    Harness.fail "FAIL: a shard's replicas did not converge";
  Option.iter
    (fun h ->
      Check.History.resolve h;
      let res =
        Check.Lin.check Check.Spec.register (Check.History.entries h)
      in
      match res.Check.Lin.verdict with
      | Check.Lin.Linearizable ->
        Printf.printf "   check: %s\n%!"
          (Format.asprintf "%a" Check.Lin.pp_result res)
      | Check.Lin.Non_linearizable w ->
        Harness.fail "shard --check: history NOT linearizable: %s"
          (String.concat "; " w)
      | Check.Lin.Limit ->
        Harness.fail "shard --check: checker ran out of budget")
    history;
  let st = Router.stats router in
  {
    shards;
    throughput = float_of_int (n - warmup - !dropped) /. (!t_end -. !t_warm);
    imbalance = Router.imbalance router;
    redirects = st.Router.redirects;
    retries = st.Router.retries;
    dropped = !dropped;
    per_shard;
  }

let print_sweep ~quick ~app ~shards ~theta ~seed ~check =
  Printf.printf "\n-- key skew: %s (zipf theta %.2f) --\n"
    (if theta = 0. then "uniform" else "hotspot")
    theta;
  Printf.printf
    "shards\tRex/s\tspeedup\timbalance\tredirects\tretries\tdropped\n%!";
  let base = ref None in
  List.iter
    (fun s ->
      let p = run_point ~quick ~app ~shards:s ~theta ~seed ~check in
      let speedup =
        match !base with
        | None ->
          base := Some p.throughput;
          1.0
        | Some b -> p.throughput /. b
      in
      Printf.printf "%d\t%.0f\t%.2fx\t%.2f\t%d\t%d\t%d\n%!" p.shards
        p.throughput speedup p.imbalance p.redirects p.retries p.dropped)
    shards

(* --- Failover timeline: kill one shard's primary, watch the rest. --- *)

let run_failover ~quick ~app ~shards ~seed =
  let bucket = 0.1 in
  let total = if quick then 2.4 else 4.0 in
  let kill_at = Float.round (0.4 *. total /. bucket) *. bucket in
  let restart_at = Float.round (0.7 *. total /. bucket) *. bucket in
  Printf.printf
    "\n== Failover: %d shards, kill shard 0's primary @%.1fs, restart @%.1fs \
     ==\n"
    shards kill_at restart_at;
  let fleet = make_fleet ~config:failover_config ~app ~shards ~seed () in
  let eng = Fleet.engine fleet in
  let router = Fleet.router fleet in
  let gen = Workload.Mix.kv_keyed ~n_keys:20_000 ~read_ratio:0.5 () in
  let rng = Rng.create (seed + 17) in
  let stop = ref false in
  (* Dedicated drivers per shard, each rejection-sampling keys that route
     to its group.  A shared pool would let requests stuck retrying
     against the electing shard starve the others of drivers — a client
     artifact that would mask the server-side isolation being measured. *)
  for d = 0 to (16 * shards) - 1 do
    let my_group = List.nth (Shard_map.groups (Fleet.map fleet)) (d mod shards) in
    ignore
      (Engine.spawn eng ~node:(Fleet.client_node fleet)
         ~name:(Printf.sprintf "driver%d" d)
         (fun () ->
           while not !stop do
             let key, request = gen rng in
             if Router.group_of router key = my_group then
               ignore (Router.call router ~key request)
           done))
  done;
  let t0 = Engine.clock eng in
  let prev = Array.init shards (Fleet.replies fleet) in
  let header =
    String.concat "\t"
      (List.init shards (fun g -> Printf.sprintf "shard%d(req/s)" g))
  in
  Printf.printf "t\t%s\tevent\n%!" header;
  let victim = ref None in
  let steps = int_of_float (Float.round (total /. bucket)) in
  let others_min = ref infinity in
  for step = 1 to steps do
    let t = float_of_int step *. bucket in
    (* Scripted chaos, between buckets so the timeline annotates it. *)
    if Float.abs (t -. bucket -. kill_at) < bucket /. 2. && !victim = None
    then victim := Fleet.crash_primary fleet 0;
    if Float.abs (t -. bucket -. restart_at) < bucket /. 2. then
      Option.iter (Fleet.restart fleet) !victim;
    Engine.run ~until:(t0 +. t) eng;
    let cells =
      List.init shards (fun g ->
          let now = Fleet.replies fleet g in
          let d = now - prev.(g) in
          prev.(g) <- now;
          let rate = float_of_int d /. bucket in
          (* Track the slowest non-victim shard during the outage. *)
          if g > 0 && t > kill_at +. bucket && t <= restart_at then
            others_min := Float.min !others_min rate;
          Printf.sprintf "%.0f" rate)
    in
    let annotate =
      if Float.abs (t -. bucket -. kill_at) < bucket /. 2. then
        "<- shard 0 primary killed"
      else if Float.abs (t -. bucket -. restart_at) < bucket /. 2. then
        "<- replica rejoins"
      else ""
    in
    Printf.printf "%.1f\t%s\t%s\n%!" t (String.concat "\t" cells) annotate
  done;
  stop := true;
  Fleet.run_for fleet 1.0;
  Harness.note_run ~label:(Printf.sprintf "shard-failover-%s" app) eng;
  Fleet.check_no_divergence fleet;
  let st = Router.stats router in
  Printf.printf
    "router during failover: %d requests, %d redirects, %d retries, %d \
     failures\n"
    st.Router.requests st.Router.redirects st.Router.retries st.Router.failures;
  if !others_min <= 0. then
    Harness.fail "FAIL: a surviving shard stalled while shard 0 was electing";
  Printf.printf
    "OK: surviving shards stayed above %.0f req/s through the outage\n%!"
    !others_min

let run ?(quick = false) ?(shards = [ 1; 2; 4; 8 ]) ?(app = "leveldb")
    ?(check = false) () =
  let seed = 7 in
  if check && app = "memcache" then
    Harness.fail
      "shard --check: memcache is not register-conformant (STORED/DELETED \
       responses, eviction) — use leveldb or kyoto";
  Printf.printf
    "\n== Shard scale-out: %s over %s shards, 3 replicas each, 128 closed-loop \
     clients ==\n"
    app
    (String.concat "/" (List.map string_of_int shards));
  if check then
    print_endline "   (--check: histories recorded, linearizability asserted)";
  List.iter (fun theta -> print_sweep ~quick ~app ~shards ~theta ~seed ~check)
    [ 0.0; 0.99 ];
  let max_shards = List.fold_left max 1 shards in
  if max_shards < 2 then
    Printf.printf "\n(failover timeline skipped: needs >= 2 shards)\n"
  else run_failover ~quick ~app ~shards:(min 4 max_shards) ~seed
