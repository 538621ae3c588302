(* Live-operations timeline: a 2-group fleet under continuous keyed
   traffic while the control plane replaces a replica, splits a shard
   off, merges it back and rolls an upgrade across every group — the
   req/s-over-time + update-lag + failover-timeline measurement of live
   reconfiguration (cf. Redis-Cluster-style live-patching studies).

   Each phase is book-ended with timeline marks; the per-bucket
   rows expose the throughput dip and latency spike each operation
   costs, and the shard/router counters give the migration lag (keys
   moved, migration wall-time, router remaps and requests parked on a
   frozen key range). *)

open Sim
module R = Rex_core
module Map_ = Shard.Shard_map
module Fleet = Shard.Fleet
module Router = Shard.Router

let run ?(quick = false) ?(bucket = 1.0) () =
  let fleet =
    Fleet.create ~seed:42 ~groups:2 (fun ~map ~group ->
        Shard.Partition.factory ~map ~group (Apps.Memcache.factory ()))
  in
  let eng = Fleet.engine fleet in
  let obs = Engine.obs eng in
  Fleet.start fleet;
  Fleet.await_primaries fleet;
  let router = Fleet.router fleet in
  let tl =
    match Harness.arm_timeline ~bucket () with
    | Some tl -> tl
    | None -> Obs.Timeline.create ~bucket ()
  in
  (* Continuous keyed traffic for the whole timeline: [fibers] open
     loops, each recording completion time + latency per reply. *)
  let fibers = if quick then 4 else 8 in
  let completed = ref 0 and failed = ref 0 in
  let stop = ref false in
  let gen = Workload.Mix.kv_keyed ~n_keys:400 ~read_ratio:0.2 () in
  for w = 0 to fibers - 1 do
    ignore
      (Engine.spawn eng ~node:(Fleet.client_node fleet)
         ~name:(Printf.sprintf "liveops-client%d" w)
         (fun () ->
           let rng = Rng.create (1000 + (w * 7919)) in
           while not !stop do
             let key, request = gen rng in
             let t0 = Engine.clock eng in
             match Router.call router ~key request with
             | Some _ ->
               incr completed;
               Obs.Timeline.record tl ~latency:(Engine.clock eng -. t0)
                 (Engine.clock eng)
             | None -> incr failed
           done))
  done;
  let quiet = if quick then 2.0 else 4.0 in
  Fleet.run_for fleet quiet;
  let baseline = !completed in
  (* Each phase: mark, run the operation (it pumps the simulation itself
     — traffic keeps completing inside), mark again, then a quiet gap so
     the recovery is visible as its own buckets. *)
  let phase name op =
    let t0 = Engine.clock eng in
    Obs.Timeline.mark tl t0 (name ^ ":start");
    op ();
    let t1 = Engine.clock eng in
    Obs.Timeline.mark tl t1 (name ^ ":done");
    Printf.printf "  %-10s t=%6.2f..%6.2f (%.2fs)\n%!" name t0 t1 (t1 -. t0);
    Fleet.run_for fleet quiet
  in
  (* replace one replica of group 0 through the log *)
  phase "reconfig" (fun () -> ignore (Fleet.reconfig_group fleet 0));
  (* live split a third group off, then merge it back out *)
  let split_group = ref None in
  phase "split" (fun () -> split_group := Some (Fleet.split fleet));
  phase "merge" (fun () -> Fleet.merge fleet (Option.get !split_group));
  (* rolling restart of every active group *)
  phase "upgrade" (fun () -> Fleet.rolling_upgrade fleet);
  Fleet.run_for fleet quiet;
  stop := true;
  Fleet.run_for fleet 1.0;
  (* --- Report: req/s over time with the control-plane marks --- *)
  Harness.print_header "liveops: req/s over the control-plane timeline"
    [ "t"; "req/s"; "lat_mean(ms)"; "lat_max(ms)"; "event" ];
  List.iter
    (fun (r : Obs.Timeline.row) ->
      Printf.printf "%.1f\t%s\t%.3f\t%.3f\t%s\n" r.Obs.Timeline.t0
        (Harness.fmt_rate r.Obs.Timeline.rate)
        (1e3 *. r.Obs.Timeline.lat_mean)
        (1e3 *. r.Obs.Timeline.lat_max)
        (String.concat ";" r.Obs.Timeline.row_marks))
    (Obs.Timeline.rows tl);
  (* --- Migration lag + failover info from the obs registry --- *)
  let c name = Obs.Metric.value (Obs.counter obs ~subsystem:"shard" name) in
  let h = Obs.histogram obs ~subsystem:"shard" "migration_duration" in
  Printf.printf
    "\nmigrations=%d keys_moved=%d migration_time mean=%.2fs max=%.2fs\n"
    (c "migrations") (c "migrated_keys") (Obs.Histogram.mean h)
    (Obs.Histogram.max_seen h);
  Printf.printf
    "reconfigs=%d rolling_upgrades=%d router_remaps=%d migration_waits=%d \
     epoch=%.0f\n"
    (c "group_reconfigs") (c "rolling_upgrades") (c "router_remaps")
    (c "migration_waits")
    (Obs.Metric.get (Obs.gauge obs ~subsystem:"shard" "fleet_epoch"));
  Printf.printf "requests: %d completed, %d failed\n" !completed !failed;
  (* --- Smoke assertions --- *)
  (* A rolling upgrade restarts leaders, so a handful of in-flight
     requests may time out at the router — an availability blip, not
     data loss (dedup makes the retry path safe).  Anything beyond a
     sliver means a migration stranded a key range. *)
  if float_of_int !failed > 0.005 *. float_of_int (max 1 !completed) then
    Harness.fail "liveops: %d of %d request(s) failed (> 0.5%%)" !failed
      !completed;
  if !completed <= baseline then
    Harness.fail "liveops: no traffic completed after the quiet period";
  (* the split and the merge *)
  let expect_migrations = 2 in
  if c "migrations" <> expect_migrations then
    Harness.fail "liveops: expected %d migration(s), observed %d"
      expect_migrations (c "migrations");
  if c "group_reconfigs" <> 1 then
    Harness.fail "liveops: replica replacement not recorded";
  if c "rolling_upgrades" = 0 then
    Harness.fail "liveops: rolling upgrade not recorded";
  if c "migrated_keys" = 0 then
    Harness.fail "liveops: migrations moved no keys";
  let expected_epoch = float_of_int expect_migrations in
  let epoch = Obs.Metric.get (Obs.gauge obs ~subsystem:"shard" "fleet_epoch") in
  if epoch <> expected_epoch then
    Harness.fail "liveops: fleet epoch %.0f, expected %.0f" epoch
      expected_epoch;
  if Obs.Timeline.marks tl = [] then
    Harness.fail "liveops: timeline recorded no phase marks";
  Fleet.check_no_divergence fleet;
  if not (Fleet.converged fleet) then
    Harness.fail "liveops: groups diverged after the timeline";
  Harness.note_run ~label:"liveops" eng;
  print_endline
    "OK: traffic survived every enabled live operation; groups converged"
