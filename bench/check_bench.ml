(* `bench/main.exe check`: the Jepsen-style correctness sweep.

   For each (stack, app, nemesis) combination, runs N seeded
   fault-schedule explorations inside the deterministic simulator
   (lib/check.Runner): a recorded client workload runs while the nemesis
   plays a seeded schedule of crashes / leader kills / partitions /
   message loss / latency skew; after healing, the history is checked
   for linearizability against the app's sequential spec and the
   replicas for convergence and liveness.  Any failing seed is shrunk to
   a minimal reproducing schedule (faults dropped one at a time, replays
   by seed) and the reproducer is written to --repro-out for CI to
   upload.

   --dedup-off injects a harness-level bug — retries mint fresh request
   identities, so replicas cannot deduplicate — and asserts the checker
   *does* flag the resulting double executions; it is the canary that
   proves the oracle can see a real exactly-once violation.

   --reads routes the workload's read-only ops through the lease/quorum
   read fast path (Client.query) instead of the ordered client path;
   the sweep must stay linearizable with leases on.

   --lease-unsafe is the fast path's own canary, mirroring --dedup-off:
   fencing is disabled on every replica and a Stale_leader fault slows
   the leader's clock beyond the drift bound while partitioning it from
   the other replicas (client links stay up), so it keeps serving local
   reads against state the rest of the group has moved past.  The
   canary workload is read-heavy (read_ratio 0.85) so clients stay
   parked on the stale leader — its reads still answer, and only a
   failed write would rotate them away.  The checker must flag at least
   one seed as non-linearizable — proof the oracle can see a stale
   read.

   --pipeline-depth N deploys every group with [Config.pipeline_depth] N
   ([Config.default_pipeline_depth], 4, unless given), so up to N Paxos
   instances are open at once and commit notices ride Accepts while an
   earlier instance is still in flight; 1 is the paper's single open
   instance. *)

module N = Check.Nemesis
module Runner = Check.Runner

let expand_stacks = function
  | "all" ->
    [
      Runner.Rex;
      Runner.Smr;
      Runner.Eve;
      Runner.Sharded;
      Runner.Cbase;
      Runner.Early;
    ]
  | s -> (
    match Runner.stack_of_string s with
    | Some st -> [ st ]
    | None -> Harness.fail "check: unknown stack %S" s)

let expand_apps = function
  | "all" -> [ Runner.Kv; Runner.Counter ]
  | s -> (
    match Runner.app_of_string s with
    | Some a -> [ a ]
    | None -> Harness.fail "check: unknown app %S" s)

let expand_nemeses = function
  | "all" -> List.map snd N.profiles
  | s -> (
    match N.profile_of_string s with
    | Some p -> [ p ]
    | None -> Harness.fail "check: unknown nemesis %S" s)

let verdict_cell (o : Runner.outcome) =
  match o.result.Check.Lin.verdict with
  | Check.Lin.Linearizable when Runner.passed o -> "ok"
  | Check.Lin.Linearizable when not o.converged -> "DIVERGED"
  | Check.Lin.Linearizable -> "WEDGED"
  | Check.Lin.Non_linearizable _ -> "NON-LIN"
  | Check.Lin.Limit -> "LIMIT"

let write_repro path (seed : int) (o : Runner.outcome) =
  let oc = open_out path in
  output_string oc
    (String.concat "\n"
       (Printf.sprintf "minimal reproducer (seed %d)" seed
        :: Runner.describe_outcome o
       @ ("" :: "history:" :: o.history_lines)
       @ [ "" ]));
  close_out oc;
  Printf.printf "   reproducer written to %s\n%!" path

(* One (stack, app, nemesis) row: sweep seeds, shrink failures. *)
let sweep_one ~stack ~app ~nemesis ~seeds ~base_seed ~dedup_off ~reads
    ~pipeline_depth ~quick ~repro_out =
  let base =
    Runner.default_config
      ~clients:(if quick then 2 else 3)
      ~ops_per_client:(if quick then 6 else 8)
      ~dedup_off ~reads_via_query:reads ~pipeline_depth ~stack ~app ~nemesis
      ~seed:base_seed ()
  in
  let t0 = Sys.time () in
  let sweep =
    Runner.sweep
      ~progress:(fun seed o ->
        if not (Runner.passed o) then
          Printf.printf "   seed %d: %s\n%!" seed (verdict_cell o))
      ~base ~seeds ()
  in
  let dt = Sys.time () -. t0 in
  Printf.printf "%-6s %-8s %-10s %5d seeds  %4d failed  %6.1fs\n%!"
    (Runner.stack_name stack) (Runner.app_name app) (N.profile_name nemesis)
    sweep.Runner.runs
    (List.length sweep.Runner.failed)
    dt;
  List.iter
    (fun (seed, (o : Runner.outcome)) ->
      Printf.printf "   seed %d shrank to %d fault(s):\n%!" seed
        (List.length o.schedule.N.faults);
      List.iter (fun l -> Printf.printf "     %s\n%!" l)
        (Runner.describe_outcome o);
      Option.iter (fun p -> write_repro p seed o) repro_out)
    sweep.Runner.failed;
  sweep.Runner.failed

(* Determinism self-check: the same seed must replay byte-identically —
   the property every shrink/replay above leans on. *)
let determinism_check ~stack ~app ~nemesis ~pipeline_depth ~seed =
  let cfg =
    Runner.default_config ~clients:2 ~ops_per_client:4 ~pipeline_depth ~stack
      ~app ~nemesis ~seed ()
  in
  let a = (Runner.run_one cfg).Runner.history_lines in
  let b = (Runner.run_one cfg).Runner.history_lines in
  if a <> b then
    Harness.fail
      "check: NON-DETERMINISTIC replay (seed %d, %s/%s/%s): two runs \
       disagree"
      seed (Runner.stack_name stack) (Runner.app_name app)
      (N.profile_name nemesis)

(* The lease-unsafe canary: a fixed beyond-bound Stale_leader schedule,
   replayed over consecutive workload seeds, with fencing disabled and
   reads on the (now unguarded) local path.  At least one seed must be
   flagged NON-LINEARIZABLE — a stale read the checker saw. *)
let lease_canary ~stack ~seeds ~base_seed ~quick =
  let stacks = expand_stacks stack in
  let horizon = 3.0 in
  let schedule =
    {
      N.horizon;
      faults =
        [
          (* Rate 0.25 is far outside the 0.2 drift bound; the long
             window gives the healthy majority time to elect and commit
             past the stale leader. *)
          { N.kind = N.Stale_leader { rate = 0.25 }; at = 0.5; dur = 2.2 };
        ];
    }
  in
  let seeds = if quick then min seeds 5 else seeds in
  Printf.printf
    "\n== Lease canary: fencing OFF + beyond-bound skew (%s, %d seeds) ==\n%!"
    stack seeds;
  let flagged = ref 0 in
  List.iter
    (fun stack ->
      for i = 0 to seeds - 1 do
        let cfg =
          Runner.default_config ~clients:3
            ~ops_per_client:(if quick then 12 else 16)
            ~reads_via_query:true ~lease_unsafe:true ~read_ratio:0.85 ~stack
            ~app:Runner.Kv ~nemesis:N.Leases ~seed:(base_seed + i) ~horizon ()
        in
        let o = Runner.run_one ~schedule cfg in
        Printf.printf "   %s seed %d: %s\n%!" (Runner.stack_name stack)
          (base_seed + i) (verdict_cell o);
        match o.Runner.result.Check.Lin.verdict with
        | Check.Lin.Non_linearizable w ->
          incr flagged;
          Printf.printf "      %s\n%!" (String.concat "; " w)
        | Check.Lin.Linearizable | Check.Lin.Limit -> ()
      done)
    stacks;
  if !flagged = 0 then
    Harness.fail
      "check --lease-unsafe: no seed was flagged — the oracle is blind to \
       stale leader-local reads";
  Printf.printf
    "OK: lease canary flagged %d seed(s) as non-linearizable\n%!" !flagged

let run ?(quick = false) ?(stack = "rex") ?(app = "kv") ?(nemesis = "mixed")
    ?(seeds = 10) ?(base_seed = 1000) ?(dedup_off = false) ?(reads = false)
    ?(lease_unsafe = false)
    ?(pipeline_depth = Rex_core.Config.default_pipeline_depth) ?repro_out () =
  if lease_unsafe then lease_canary ~stack ~seeds ~base_seed ~quick
  else begin
  let stacks = expand_stacks stack in
  let apps = expand_apps app in
  let nemeses = expand_nemeses nemesis in
  Printf.printf
    "\n== Fault-schedule explorer: %s x %s x %s, %d seeds from %d%s%s%s ==\n%!"
    stack app nemesis seeds base_seed
    (if dedup_off then " (DEDUP OFF: expecting violations)" else "")
    (if reads then " (reads via fast path)" else "")
    (if pipeline_depth <> Rex_core.Config.default_pipeline_depth then
       Printf.sprintf " (pipeline depth %d)" pipeline_depth
     else "");
  determinism_check ~stack:(List.hd stacks) ~app:(List.hd apps)
    ~nemesis:(List.hd nemeses) ~pipeline_depth ~seed:base_seed;
  let failures = ref [] in
  List.iter
    (fun stack ->
      List.iter
        (fun app ->
          List.iter
            (fun nemesis ->
              let f =
                sweep_one ~stack ~app ~nemesis ~seeds ~base_seed ~dedup_off
                  ~reads ~pipeline_depth ~quick ~repro_out
              in
              List.iter
                (fun (seed, o) ->
                  failures := (stack, app, seed, o) :: !failures)
                f)
            nemeses)
        apps)
    stacks;
  if dedup_off then begin
    (* The canary must trip: a run whose client defeats dedup is
       genuinely at-least-once, and the checker has to see it. *)
    if !failures = [] then
      Harness.fail
        "check --dedup-off: no seed was flagged — the oracle is blind to \
         double execution";
    let max_faults =
      List.fold_left
        (fun acc (_, _, _, (o : Runner.outcome)) ->
          max acc (List.length o.schedule.N.faults))
        0 !failures
    in
    Printf.printf
      "OK: dedup-off flagged %d seed(s), minimal reproducers have <= %d \
       fault(s)\n%!"
      (List.length !failures) max_faults;
    if max_faults > 3 then
      Harness.fail
        "check --dedup-off: a reproducer kept %d faults (expected <= 3)"
        max_faults
  end
  else if !failures <> [] then
    Harness.fail "check: %d seed(s) failed (reproducers above)"
      (List.length !failures)
  else Printf.printf "OK: every seed linearizable, converged and live\n%!"
  end
