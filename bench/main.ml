(* Benchmark harness entry point: one subcommand per table/figure of the
   paper's evaluation (§6), plus overhead, ablations and wall-clock
   micro-benchmarks.  `all` regenerates everything.

   Every subcommand takes --metrics-out FILE (per-run metrics registry as
   a JSON array), --trace-out FILE (Chrome trace_event JSON of the last
   traced run, viewable in chrome://tracing or ui.perfetto.dev) and
   --timeline-out FILE (windowed req/s + latency CSV of the most recent
   run). *)

open Cmdliner
open Bench_lib

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Run scaled-down workloads.")

let app_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "a"; "app" ]
        ~doc:
          "Only this application (thumbnail, lockserver, leveldb, kyoto, \
           filesys, memcache).")

let scale_arg =
  Arg.(
    value & opt float 0.1
    & info [ "scale" ]
        ~doc:"Timeline compression for fig10 (1.0 = the paper's 140 s).")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Write each run's metrics registry to $(docv) as JSON.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Collect tracing spans and write a Chrome trace_event file to \
           $(docv).")

let timeline_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "timeline-out" ] ~docv:"FILE"
        ~doc:
          "Write a windowed req/s + latency time series (CSV) of the most \
           recent run to $(docv).")

(* Wrap a thunk-valued term so that the metrics/trace/timeline sinks are
   armed before the benchmark runs and flushed after it finishes.  A
   smoke assertion failure (Harness.Failed) prints and exits non-zero —
   the same assertions raise so `dune runtest` can catch them
   in-process. *)
let instrumented (term : (unit -> unit) Term.t) =
  let wrap metrics trace timeline run =
    Harness.set_outputs ~metrics ~trace ~timeline;
    (try run ()
     with Harness.Failed msg ->
       Harness.flush_outputs ();
       prerr_endline msg;
       exit 1);
    Harness.flush_outputs ()
  in
  Term.(const wrap $ metrics_arg $ trace_arg $ timeline_arg $ term)

let fig7_cmd =
  let run quick app () = Fig7.run ~quick ?app () in
  Cmd.v (Cmd.info "fig7" ~doc:"Fig. 7: application throughput vs threads")
    (instrumented Term.(const run $ quick_arg $ app_arg))

(* Validated at parse time (Arg.enum): an unknown backend is a usage
   error.  `sim` replays the figure on the deterministic simulator;
   `domains` reruns the execution-stage grid on real OCaml 5 domains
   (lib/par) with wall-clock timing. *)
let backend_arg =
  Arg.(
    value
    & opt (enum [ ("sim", `Sim); ("domains", `Domains) ]) `Sim
    & info [ "backend" ]
        ~doc:
          "Execution backend: $(b,sim) (virtual time, replicated cluster) \
           or $(b,domains) (real OCaml 5 domains, execution stage only).")

let fig8a_cmd =
  let run quick backend () =
    match backend with
    | `Sim -> Fig8.run_a ~quick ()
    | `Domains -> Par_bench.run_a_domains ~quick ()
  in
  Cmd.v (Cmd.info "fig8a" ~doc:"Fig. 8a: lock granularity")
    (instrumented Term.(const run $ quick_arg $ backend_arg))

let fig8b_cmd =
  let run quick backend () =
    match backend with
    | `Sim -> Fig8.run_b ~quick ()
    | `Domains -> Par_bench.run_b_domains ~quick ()
  in
  Cmd.v (Cmd.info "fig8b" ~doc:"Fig. 8b: lock contention, native vs Rex")
    (instrumented Term.(const run $ quick_arg $ backend_arg))

let par_cmd =
  Cmd.v
    (Cmd.info "par"
       ~doc:
         "Execution stage on the real-parallel domains backend vs the \
          simulator: worker scaling, null-exec record overhead, lock \
          contention, pool utilization")
    (instrumented
       Term.(const (fun quick () -> Par_bench.run ~quick ()) $ quick_arg))

let fig9_cmd =
  Cmd.v (Cmd.info "fig9" ~doc:"Fig. 9: query semantics")
    (instrumented Term.(const (fun quick () -> Fig9.run ~quick ()) $ quick_arg))

let fig10_cmd =
  Cmd.v (Cmd.info "fig10" ~doc:"Fig. 10: failover timeline")
    (instrumented Term.(const (fun scale () -> Fig10.run ~scale ()) $ scale_arg))

let table1_cmd =
  Cmd.v (Cmd.info "table1" ~doc:"Table 1: primitives per app")
    (instrumented Term.(const (fun () () -> Table1.run ()) $ const ()))

let overhead_cmd =
  Cmd.v (Cmd.info "overhead" ~doc:"§6.3 overhead breakdown")
    (instrumented
       Term.(const (fun quick () -> Overhead.run ~quick ()) $ quick_arg))

(* Validated at parse time: an unknown section name is a usage error
   (non-zero exit) instead of silently running nothing. *)
let only_arg =
  let section = Arg.enum (List.map (fun s -> (s, s)) Ablate.section_names) in
  Arg.(
    value
    & opt (some section) None
    & info [ "only" ]
        ~doc:
          (Printf.sprintf "Run a single ablation section, one of %s."
             (String.concat ", " Ablate.section_names)))

let ablate_cmd =
  Cmd.v (Cmd.info "ablate" ~doc:"Design-choice ablations")
    (instrumented
       Term.(
         const (fun quick only () -> Ablate.run ~quick ?only ())
         $ quick_arg $ only_arg))

(* Sweep flags take comma-separated values, validated at parse time: a
   malformed or out-of-range value exits non-zero with usage. *)
let list_conv ~what ~expected of_string valid to_string =
  let parse s =
    let parts = String.split_on_char ',' s in
    let values =
      List.filter_map
        (fun p ->
          match of_string (String.trim p) with
          | Some v when valid v -> Some v
          | Some _ | None -> None)
        parts
    in
    if List.length values = List.length parts && values <> [] then Ok values
    else
      Error
        (`Msg
           (Printf.sprintf "invalid %s sweep %S (expected comma-separated %s)"
              what s expected))
  in
  let print ppf l =
    Format.pp_print_string ppf (String.concat "," (List.map to_string l))
  in
  Arg.conv (parse, print)

let shard_list_conv =
  list_conv ~what:"shard" ~expected:"counts in 1..64, e.g. 1,2,4,8"
    int_of_string_opt
    (fun v -> v >= 1 && v <= 64)
    string_of_int

let ratio_list_conv =
  list_conv ~what:"read-ratio" ~expected:"ratios in 0..1, e.g. 0.5,0.9,0.99"
    float_of_string_opt
    (fun v -> v >= 0. && v <= 1.)
    string_of_float

let shards_arg =
  Arg.(
    value
    & opt shard_list_conv [ 1; 2; 4; 8 ]
    & info [ "shards" ] ~docv:"N,N,..."
        ~doc:"Shard counts to sweep (default 1,2,4,8).")

let shard_app_arg =
  Arg.(
    value
    & opt (enum (List.map (fun s -> (s, s)) Shard_bench.app_names)) "leveldb"
    & info [ "a"; "app" ]
        ~doc:
          (Printf.sprintf "Key/value application to shard, one of %s."
             (String.concat ", " Shard_bench.app_names)))

(* --check records every client call and asserts the resulting history
   is linearizable (lib/check), on top of the benchmark's own checks. *)
let check_flag =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:"Record client histories and assert linearizability (lib/check).")

let shard_cmd =
  let run quick shards app check () =
    Shard_bench.run ~quick ~shards ~app ~check ()
  in
  Cmd.v
    (Cmd.info "shard"
       ~doc:"Scale-out: shard count x key skew sweep, plus shard failover")
    (instrumented
       Term.(const run $ quick_arg $ shards_arg $ shard_app_arg $ check_flag))

let read_ratio_arg =
  Arg.(
    value
    & opt (some ratio_list_conv) None
    & info [ "read-ratio" ] ~docv:"R,R,..."
        ~doc:
          "Replace the core-workload table with a read-ratio sweep that \
           routes reads through the lease/quorum fast path.")

let ycsb_cmd =
  Cmd.v (Cmd.info "ycsb" ~doc:"YCSB core workloads on the KV stores")
    (instrumented
       Term.(
         const (fun quick read_ratio () -> Ycsb.run ~quick ?read_ratio ())
         $ quick_arg $ read_ratio_arg))

let reads_cmd =
  Cmd.v
    (Cmd.info "reads"
       ~doc:
         "Read fast path (leader leases + quorum reads) vs the ordered \
          path: read ratio x stack on sim, execution-stage read mix on \
          domains")
    (instrumented
       Term.(
         const (fun quick backend () -> Reads_bench.run ~quick ~backend ())
         $ quick_arg $ backend_arg))

(* `--workers` / `--conflict-rate` are comma-separated sweeps like
   `--shards`. *)
let workers_arg =
  Arg.(
    value
    & opt shard_list_conv [ 1; 2; 4; 8 ]
    & info [ "workers" ] ~docv:"N,N,..."
        ~doc:"Worker-pool sizes to sweep (default 1,2,4,8).")

let conflict_rate_arg =
  Arg.(
    value
    & opt ratio_list_conv [ 0.; 0.1; 0.5 ]
    & info [ "conflict-rate" ] ~docv:"R,R,..."
        ~doc:
          "Hot-key write fractions to sweep, each in 0..1 (default \
           0,0.1,0.5).")

let sched_cmd =
  let run quick backend workers conflict_rates () =
    Sched_bench.run ~quick ~backend ~workers ~conflict_rates ()
  in
  Cmd.v
    (Cmd.info "sched"
       ~doc:
         "Conflict-aware parallel SMR (cbase DAG dispatch + early \
          scheduling) vs Rex trace-replay: conflict rate x workers x \
          stack on sim, execution stage on domains, plus a sharded \
          sched-per-group smoke")
    (instrumented
       Term.(
         const run $ quick_arg $ backend_arg $ workers_arg
         $ conflict_rate_arg))

let eve_cmd =
  Cmd.v
    (Cmd.info "eve" ~doc:"Rex vs execute-verify (Eve-style) comparison (§5)")
    (instrumented
       Term.(const (fun quick () -> Eve_bench.run ~quick ()) $ quick_arg))

let chain_cmd =
  Cmd.v (Cmd.info "chain" ~doc:"Paxos vs chain replication agree stage (§7)")
    (instrumented
       Term.(const (fun quick () -> Chain_bench.run ~quick ()) $ quick_arg))

let dedup_cmd =
  Cmd.v
    (Cmd.info "dedup"
       ~doc:
         "Exactly-once smoke: retried requests under faults on all three \
          stacks")
    (instrumented
       Term.(
         const (fun quick check () -> Dedup_smoke.run ~quick ~check ())
         $ quick_arg $ check_flag))

(* --- `liveops`: the control-plane timeline bench. ---

   A non-positive --bucket is a usage error at parse time. *)

let bucket_conv =
  let parse s =
    match float_of_string_opt s with
    | Some v when v > 0. && Float.is_finite v -> Ok v
    | Some _ | None ->
      Error
        (`Msg
           (Printf.sprintf
              "invalid bucket width %S (expected a positive number of \
               virtual seconds, e.g. 0.5)"
              s))
  in
  Arg.conv (parse, fun ppf v -> Format.fprintf ppf "%g" v)

let bucket_arg =
  Arg.(
    value
    & opt bucket_conv 1.0
    & info [ "bucket" ] ~docv:"SECONDS"
        ~doc:"Timeline window width in virtual seconds (default 1.0).")

let liveops_cmd =
  let run quick bucket () = Liveops.run ~quick ~bucket () in
  Cmd.v
    (Cmd.info "liveops"
       ~doc:
         "Control-plane timeline: req/s over time while a fleet is \
          reconfigured, split, merged and upgraded under traffic, with \
          migration lag and failover info from the metrics registry")
    (instrumented
       Term.(
         const run $ quick_arg $ bucket_arg))

(* --- `check`: the fault-schedule explorer + linearizability sweep. --- *)

let check_cmd =
  let stack_arg =
    Arg.(
      value & opt string "rex"
      & info [ "stack" ]
          ~doc:
            "Stack under test: rex, smr, eve, shard, cbase, early, or all.")
  in
  let capp_arg =
    Arg.(
      value & opt string "kv"
      & info [ "a"; "app" ] ~doc:"Application spec: kv, counter, or all.")
  in
  let nemesis_arg =
    Arg.(
      value & opt string "mixed"
      & info [ "nemesis" ]
          ~doc:
            "Fault profile: crash, partition, drop, skew, leader, lease, \
             mixed, reconfig, split, upgrade, or all.")
  in
  let seeds_arg =
    Arg.(
      value & opt int 10
      & info [ "seeds" ] ~doc:"Number of seeded schedules per combination.")
  in
  let base_seed_arg =
    Arg.(
      value & opt int 1000
      & info [ "seed" ] ~doc:"First seed of the sweep (seeds are consecutive).")
  in
  let dedup_off_arg =
    Arg.(
      value & flag
      & info [ "dedup-off" ]
          ~doc:
            "Defeat request dedup in the client (retries mint fresh request \
             ids) and assert the checker catches the double executions.")
  in
  let repro_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "repro-out" ] ~docv:"FILE"
          ~doc:"Write the minimal reproducer of the first failure to $(docv).")
  in
  let reads_arg =
    Arg.(
      value & flag
      & info [ "reads" ]
          ~doc:
            "Route read-only ops through the lease/quorum read fast path \
             (Client.query) instead of the ordered client path.")
  in
  let lease_unsafe_arg =
    Arg.(
      value & flag
      & info [ "lease-unsafe" ]
          ~doc:
            "Canary: disable lease fencing and inject a beyond-bound \
             stale-leader fault, asserting the checker flags the stale \
             reads.")
  in
  let depth_arg =
    Arg.(
      value & opt int Rex_core.Config.default_pipeline_depth
      & info [ "pipeline-depth" ] ~docv:"N"
          ~doc:
            "Deploy every group with up to $(docv) Paxos instances open at \
             once (Config.pipeline_depth); 1 is the paper's single open \
             instance.")
  in
  let open_loop_arg =
    Arg.(
      value & flag
      & info [ "open-loop" ]
          ~doc:
            "Run the open-loop load ramp instead of the fault explorer: \
             sampled windowed linearizability across every stack plus the \
             at-least-once canary the checker must flag.")
  in
  let run quick stack app nemesis seeds base_seed dedup_off reads lease_unsafe
      pipeline_depth repro_out open_loop () =
    if pipeline_depth < 1 then Harness.fail "check: --pipeline-depth must be >= 1";
    if open_loop then Load_bench.open_loop_check ~quick ()
    else
      Check_bench.run ~quick ~stack ~app ~nemesis ~seeds ~base_seed ~dedup_off
        ~reads ~lease_unsafe ~pipeline_depth ?repro_out ()
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Fault-schedule explorer: seeded nemesis schedules + linearizability \
          checker over the recorded client histories")
    (instrumented
       Term.(
         const run $ quick_arg $ stack_arg $ capp_arg $ nemesis_arg $ seeds_arg
         $ base_seed_arg $ dedup_off_arg $ reads_arg $ lease_unsafe_arg
         $ depth_arg $ repro_out_arg $ open_loop_arg))

(* --- `load`: the open-loop session-fleet engine + overload control. --- *)

let load_cmd =
  let lstack_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "stack" ]
          ~doc:
            "Ramp only this stack (rex, smr, eve, cbase, early); default \
             runs all five plus the overload A/B, canary and domains smoke.")
  in
  let lcheck_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Record every op into the bounded-memory sampled checker and \
             assert windowed linearizability per stack.")
  in
  let run quick check stack () = Load_bench.run ~quick ~check ?stack () in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Open-loop load: 10^5-session fleet, Poisson/burst/ramp arrivals, \
          frontend admission control, sampled linearizability under way")
    (instrumented Term.(const run $ quick_arg $ lcheck_arg $ lstack_arg))

let bechamel_cmd =
  Cmd.v (Cmd.info "bechamel" ~doc:"Wall-clock micro-benchmarks")
    Term.(const Bechamel_suite.run $ const ())

let all ~quick () =
  Table1.run ();
  Fig7.run ~quick ();
  Fig8.run_a ~quick ();
  Fig8.run_b ~quick ();
  Fig9.run ~quick ();
  Fig10.run ~scale:(if quick then 0.05 else 0.1) ();
  Overhead.run ~quick ();
  Ablate.run ~quick ();
  Eve_bench.run ~quick ();
  Ycsb.run ~quick ();
  Chain_bench.run ~quick ();
  Shard_bench.run ~quick ();
  Dedup_smoke.run ~quick ();
  Liveops.run ~quick ();
  Par_bench.run ~quick ();
  Sched_bench.run ~quick ();
  Load_bench.run ~quick ();
  Bechamel_suite.run ()

let all_term = instrumented Term.(const (fun quick () -> all ~quick ()) $ quick_arg)

let all_cmd = Cmd.v (Cmd.info "all" ~doc:"Every table and figure") all_term

let default = all_term

let () =
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "rex-bench" ~version:"1.0"
             ~doc:"Regenerate the tables and figures of the Rex paper")
          [
            fig7_cmd;
            fig8a_cmd;
            fig8b_cmd;
            fig9_cmd;
            fig10_cmd;
            table1_cmd;
            overhead_cmd;
            ablate_cmd;
            eve_cmd;
            ycsb_cmd;
            reads_cmd;
            chain_cmd;
            shard_cmd;
            dedup_cmd;
            liveops_cmd;
            check_cmd;
            par_cmd;
            sched_cmd;
            load_cmd;
            bechamel_cmd;
            all_cmd;
          ]))
