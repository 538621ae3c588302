(* rex-demo: a command-line playground for the Rex framework.

   Pick an application, a workload size, worker threads, a seed, and
   optional fault injection; the tool runs a replicated cluster in the
   simulator and reports throughput, convergence and trace statistics.
   With --shards N > 1 it runs N independent replica groups behind a
   consistent-hash router (lib/shard) instead of a single group.

     dune exec bin/rex_demo.exe -- --app leveldb -n 20000 --threads 8 \
       --kill-primary --checkpoints
     dune exec bin/rex_demo.exe -- --app memcache --shards 4 -n 20000 *)

open Sim
module R = Rex_core
module Router = Shard.Router

let apps :
    (string * (unit -> R.App.factory) * (unit -> Workload.Mix.gen)) list =
  [
    ( "thumbnail",
      (fun () -> Apps.Thumbnail.factory ()),
      fun () -> Workload.Mix.thumbnail ~n_images:100_000 );
    ( "lockserver",
      (fun () -> Apps.Lock_server.factory ()),
      fun () -> Workload.Mix.lock_server ~n_files:10_000 );
    ( "leveldb",
      (fun () -> Apps.Leveldb.factory ()),
      fun () -> Workload.Mix.kv ~n_keys:10_000 ~read_ratio:0.5 () );
    ( "kyoto",
      (fun () -> Apps.Kyoto.factory ()),
      fun () -> Workload.Mix.kv ~n_keys:10_000 ~read_ratio:0.5 () );
    ( "filesys",
      (fun () -> Apps.Filesys.factory ()),
      fun () -> Workload.Mix.filesystem ~n_files:64 );
    ( "memcache",
      (fun () -> Apps.Memcache.factory ()),
      fun () -> Workload.Mix.kv ~n_keys:10_000 ~read_ratio:0.5 () );
  ]

let export eng metrics_out trace_out =
  (match metrics_out with
  | Some path ->
    Obs.Export.to_file ~path
      (Obs.Export.metrics_json (Obs.registry (Engine.obs eng)));
    Printf.printf "metrics written to %s\n" path
  | None -> ());
  match trace_out with
  | Some path ->
    Obs.Export.to_file ~path
      (Obs.Export.chrome_trace (Obs.spans (Engine.obs eng)));
    Printf.printf "trace written to %s\n" path
  | None -> ()

(* --- Single machine on real domains (--backend domains) ---

   The domains backend has no simulated network, so there is no cluster:
   this mode runs ONE machine's execution stage — the chosen app behind
   the record-mode runtime, [threads] worker fibers on a pool of real
   OCaml 5 domains — and reports wall-clock throughput, the recorded
   trace volume and the final digest.  It is the live demo of what
   `bench par` measures. *)

let run_on_domains ~factory ~gen ~n ~threads ~seed ~metrics_out =
  let d = Par.Domains.create ~seed () in
  Printf.printf "domains backend up: %d worker domain(s), %d fibers\n%!"
    (Par.Domains.domains d) threads;
  let rt = Rexsync.Runtime.create (Par.Domains.backend d) ~node:0 ~slots:threads in
  let api = R.Api.make rt in
  let app : R.App.t = factory () api in
  let timers = R.Api.seal api in
  let remaining = Atomic.make threads in
  (* Timer fibers run unbound (native path) and exit once the workers
     are done, so [join] terminates. *)
  List.iter
    (fun (spec : R.Api.timer_spec) ->
      Par.Domains.spawn d ~node:0 ~name:spec.R.Api.t_name (fun () ->
          while Atomic.get remaining > 0 do
            Engine.sleep spec.R.Api.t_interval;
            if Atomic.get remaining > 0 then spec.R.Api.t_callback ()
          done))
    timers;
  let per = n / threads in
  let t0 = Par.Domains.now d in
  for w = 0 to threads - 1 do
    Par.Domains.spawn d ~node:0
      ~name:(Printf.sprintf "worker%d" w)
      (fun () ->
        Rexsync.Runtime.bind_slot rt w;
        let g = gen () in
        let rng = Rng.create ((seed * 31) + w) in
        for _ = 1 to per do
          ignore (app.R.App.execute ~request:(g rng))
        done;
        Rexsync.Runtime.unbind_slot rt;
        Atomic.decr remaining)
  done;
  Par.Domains.join d;
  let dt = Par.Domains.now d -. t0 in
  let st = Rexsync.Runtime.stats rt in
  let total = per * threads in
  Printf.printf
    "\n%d requests executed in %.3f wall s => %.0f req/s\n\
     recorded %d events, %d edges (%d reduced); digest %s\n"
    total dt
    (float_of_int total /. dt)
    st.Rexsync.Runtime.events_recorded st.Rexsync.Runtime.edges_recorded
    st.Rexsync.Runtime.edges_reduced
    (app.R.App.digest ());
  (match metrics_out with
  | Some path ->
    Obs.Export.to_file ~path
      (Obs.Export.metrics_json (Obs.registry (Par.Domains.obs d)));
    Printf.printf "metrics written to %s\n" path
  | None -> ());
  Par.Domains.shutdown d

(* --- Single replica group (the original demo) --- *)

let run_single ~factory ~gen ~n ~threads ~seed ~kill_primary ~checkpoints
    ~metrics_out ~trace_out =
  let cfg =
    R.Config.make ~replicas:[ 0; 1; 2 ] ~workers:threads
      ~checkpoint_interval:(if checkpoints then Some 0.25 else None)
      ()
  in
  let cluster =
    R.Cluster.launch ~seed
      ~before_start:(fun c ->
        if trace_out <> None then
          Obs.enable_tracing (Engine.obs (R.Cluster.engine c)) true)
      cfg (factory ())
  in
  let eng = R.Cluster.engine cluster in
  let primary = R.Cluster.await_primary cluster in
  Printf.printf "cluster up; primary = replica %d\n%!" (R.Server.node primary);
  let g = gen () in
  let rng = Rng.create (seed * 31) in
  let completed = ref 0 and dropped = ref 0 and launched = ref 0 in
  let t0 = Engine.clock eng in
  let target = ref primary in
  let rec submit_one () =
    if !launched < n then begin
      incr launched;
      R.Server.submit !target (g rng) (fun r ->
          (match r with Some _ -> incr completed | None -> incr dropped);
          submit_one ())
    end
  in
  ignore
    (Engine.spawn eng ~node:(R.Server.node primary) (fun () ->
         for _ = 1 to 16 * threads do
           submit_one ()
         done));
  (* Optional fault injection halfway through. *)
  if kill_primary then
    ignore
      (Engine.spawn eng ~node:3 ~name:"chaos" (fun () ->
           while !completed < n / 2 do
             Engine.sleep 0.01
           done;
           let victim = R.Server.node primary in
           Printf.printf "[%.3fs] killing primary (replica %d)\n%!"
             (Engine.now () -. t0) victim;
           R.Cluster.crash cluster victim;
           (* resume driving on the new primary *)
           let rec wait_new () =
             match R.Cluster.primary cluster with
             | Some p when R.Server.node p <> victim ->
               Printf.printf "[%.3fs] new primary: replica %d\n%!"
                 (Engine.now () -. t0) (R.Server.node p);
               target := p;
               let remaining = n - !completed - !dropped in
               launched := n - remaining;
               for _ = 1 to min remaining (16 * threads) do
                 submit_one ()
               done
             | _ ->
               Engine.sleep 0.01;
               wait_new ()
           in
           wait_new ();
           Engine.sleep 1.0;
           Printf.printf "[%.3fs] restarting replica %d\n%!"
             (Engine.now () -. t0) victim;
           R.Cluster.restart cluster victim));
  let deadline = Engine.clock eng +. 600. in
  let rec pump () =
    Engine.run ~until:(Engine.clock eng +. 0.25) eng;
    if !completed + !dropped < n && Engine.clock eng < deadline then pump ()
  in
  pump ();
  R.Cluster.run_for cluster 3.0;
  let dt = Engine.clock eng -. t0 -. 3.0 in
  Printf.printf "\n%d/%d requests committed (%d dropped) in %.3f virtual s \
                 => %.0f req/s\n"
    !completed n !dropped dt
    (float_of_int !completed /. dt);
  Array.iter
    (fun s ->
      if Engine.node_alive eng (R.Server.node s) then begin
        let st = R.Server.runtime_stats s in
        Printf.printf
          "replica %d: digest %-12s role %-9s events rec/replayed %d/%d \
           waited %d%s\n"
          (R.Server.node s) (R.Server.app_digest s)
          (if R.Server.is_primary s then "primary" else "secondary")
          st.Rexsync.Runtime.events_recorded
          st.Rexsync.Runtime.events_replayed
          st.Rexsync.Runtime.waited_events
          (match R.Server.divergence s with
          | Some m -> "  DIVERGED: " ^ m
          | None -> "")
      end)
    (R.Cluster.servers cluster);
  export eng metrics_out trace_out;
  let digests =
    Array.to_list (R.Cluster.servers cluster)
    |> List.filter (fun s -> Engine.node_alive eng (R.Server.node s))
    |> List.map R.Server.app_digest
  in
  match digests with
  | d :: rest when List.for_all (( = ) d) rest ->
    print_endline "replicas CONVERGED"
  | _ ->
    print_endline "replicas DID NOT converge";
    exit 1

(* --- Sharded fleet (--shards N > 1) --- *)

let run_sharded ~shards ~factory ~gen ~n ~threads ~seed ~kill_primary
    ~checkpoints ~metrics_out ~trace_out =
  let config ~group:_ ~replicas =
    R.Config.make ~workers:threads ~propose_interval:2e-4
      ~checkpoint_interval:(if checkpoints then Some 0.25 else None)
      ~replicas ()
  in
  let fleet =
    Shard.Fleet.create ~seed ~groups:shards ~config (fun ~map ~group ->
        Shard.Partition.factory ~map ~group (factory ()))
  in
  let eng = Shard.Fleet.engine fleet in
  if trace_out <> None then Obs.enable_tracing (Engine.obs eng) true;
  Shard.Fleet.start fleet;
  Shard.Fleet.await_primaries fleet;
  Printf.printf "fleet up: %d groups x %d replicas, router on node %d\n%!"
    shards 3 (Shard.Fleet.client_node fleet);
  let router = Shard.Fleet.router fleet in
  let g = gen () in
  let rng = Rng.create (seed * 31) in
  let completed = ref 0 and dropped = ref 0 and launched = ref 0 in
  let t0 = Engine.clock eng in
  let drivers = 16 * threads in
  for _ = 1 to drivers do
    ignore
      (Engine.spawn eng ~node:(Shard.Fleet.client_node fleet) ~name:"driver"
         (fun () ->
           while !launched < n do
             incr launched;
             let request = g rng in
             let key =
               Option.value
                 (Shard.Partition.default_key_of request)
                 ~default:request
             in
             match Router.call router ~key request with
             | Some _ -> incr completed
             | None -> incr dropped
           done))
  done;
  if kill_primary then
    ignore
      (Engine.spawn eng ~node:(Shard.Fleet.client_node fleet) ~name:"chaos"
         (fun () ->
           while !completed < n / 2 do
             Engine.sleep 0.01
           done;
           match Shard.Fleet.crash_primary fleet 0 with
           | None -> ()
           | Some victim ->
             Printf.printf "[%.3fs] killed group 0 primary (node %d)\n%!"
               (Engine.now () -. t0) victim;
             Engine.sleep 1.0;
             Printf.printf "[%.3fs] restarting node %d\n%!"
               (Engine.now () -. t0) victim;
             Shard.Fleet.restart fleet victim));
  let deadline = Engine.clock eng +. 600. in
  let rec pump () =
    Engine.run ~until:(Engine.clock eng +. 0.25) eng;
    if !completed + !dropped < n && Engine.clock eng < deadline then pump ()
  in
  pump ();
  Shard.Fleet.run_for fleet 3.0;
  let dt = Engine.clock eng -. t0 -. 3.0 in
  let st = Router.stats router in
  Printf.printf "\n%d/%d requests committed (%d dropped) in %.3f virtual s \
                 => %.0f req/s across %d shards\n"
    !completed n !dropped dt
    (float_of_int !completed /. dt)
    shards;
  Printf.printf
    "router: %d requests, %d hops, %d redirects, %d retries, %d failures, \
     imbalance %.2f\n"
    st.Router.requests st.Router.hops st.Router.redirects st.Router.retries
    st.Router.failures (Router.imbalance router);
  for grp = 0 to shards - 1 do
    let primary_node =
      match Shard.Fleet.primary fleet grp with
      | Some s -> string_of_int (R.Server.node s)
      | None -> "-"
    in
    Printf.printf "shard %d: %d routed ok, %d replies, primary node %s\n" grp
      (Router.routed_ok router ~group:grp)
      (Shard.Fleet.replies fleet grp)
      primary_node
  done;
  export eng metrics_out trace_out;
  Shard.Fleet.check_no_divergence fleet;
  if Shard.Fleet.converged fleet then print_endline "all shards CONVERGED"
  else begin
    print_endline "a shard DID NOT converge";
    exit 1
  end

let run app n threads seed shards backend kill_primary checkpoints metrics_out
    trace_out =
  match List.find_opt (fun (k, _, _) -> k = app) apps with
  | None ->
    (* unreachable: --app is validated by Arg.enum at parse time *)
    Printf.eprintf "unknown app %S; choose from: %s\n" app
      (String.concat ", " (List.map (fun (k, _, _) -> k) apps));
    exit 1
  | Some (_, factory, gen) ->
    if backend = `Domains then begin
      if shards > 1 || kill_primary || checkpoints || trace_out <> None then
        prerr_endline
          "note: --shards/--kill-primary/--checkpoints/--trace-out need the \
           simulated cluster and are ignored with --backend domains";
      run_on_domains ~factory ~gen ~n ~threads ~seed ~metrics_out
    end
    else if shards <= 1 then
      run_single ~factory ~gen ~n ~threads ~seed ~kill_primary ~checkpoints
        ~metrics_out ~trace_out
    else
      run_sharded ~shards ~factory ~gen ~n ~threads ~seed ~kill_primary
        ~checkpoints ~metrics_out ~trace_out

open Cmdliner

(* Validating at parse time makes an unknown app a usage error: rex-demo
   exits non-zero and prints the choices instead of starting a cluster. *)
let app_conv = Arg.enum (List.map (fun (k, _, _) -> (k, k)) apps)

let app_arg =
  Arg.(value & opt app_conv "lockserver" & info [ "a"; "app" ] ~doc:"Application.")

let n_arg = Arg.(value & opt int 10_000 & info [ "n" ] ~doc:"Request count.")
let threads_arg = Arg.(value & opt int 8 & info [ "threads" ] ~doc:"Workers.")
let seed_arg = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Simulation seed.")

(* Same parse-time strictness for the shard count. *)
let shards_conv =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= 1 && v <= 64 -> Ok v
    | Some _ | None ->
      Error (`Msg (Printf.sprintf "shard count %S not in 1..64" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let shards_arg =
  Arg.(
    value & opt shards_conv 1
    & info [ "shards" ]
        ~doc:"Replica groups; > 1 runs a consistent-hash-routed fleet.")

(* Parse-time validated like --app: an unknown backend is a usage error. *)
let backend_conv = Arg.enum [ ("sim", `Sim); ("domains", `Domains) ]

let backend_arg =
  Arg.(
    value & opt backend_conv `Sim
    & info [ "backend" ]
        ~doc:
          "Execution backend: $(b,sim) runs the replicated cluster in the \
           deterministic simulator; $(b,domains) runs one machine's \
           execution stage on real OCaml 5 domains (wall-clock, no \
           replication).")

let kill_arg =
  Arg.(value & flag & info [ "kill-primary" ] ~doc:"Crash the primary mid-run.")

let ckpt_arg =
  Arg.(value & flag & info [ "checkpoints" ] ~doc:"Periodic checkpoints.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Write the metrics registry to $(docv) as JSON.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Collect tracing spans and write Chrome trace_event JSON to \
              $(docv).")

let () =
  let term =
    Term.(
      const run $ app_arg $ n_arg $ threads_arg $ seed_arg $ shards_arg
      $ backend_arg $ kill_arg $ ckpt_arg $ metrics_arg $ trace_arg)
  in
  exit (Cmd.eval (Cmd.v (Cmd.info "rex-demo" ~doc:"Rex cluster playground") term))
