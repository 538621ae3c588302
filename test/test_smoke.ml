(* Tier-1 wrappers around the bench smokes.  These used to run only as
   CI shell steps (`main.exe dedup --quick` etc.); linking them through
   bench_lib makes `dune runtest` execute the same assertions
   in-process, so a failure localizes to a named test case instead of a
   red CI job.  The benches signal failure with [Harness.Failed]. *)

let smoke f () =
  try f () with Bench_lib.Harness.Failed msg -> Alcotest.fail msg

let dedup () = Bench_lib.Dedup_smoke.run ~quick:true ~check:true ()

(* The dedup smoke's verdict on hand-made outcomes of 4 requests.  A
   call still pending at the deadline leaves no response even when its
   request executed and the counter reached 4. *)
let dedup_verdict () =
  List.iter
    (fun (what, want, values, final, dup_hits) ->
      Alcotest.(check string) what want
        (Bench_lib.Dedup_smoke.verdict ~total:4 ~values ~final ~dup_hits))
    [
      ("all answered once", "exactly-once", [ 1; 2; 3; 4 ], "4", 1);
      ("no retry intercepted", "NO-DUPLICATE", [ 1; 2; 3; 4 ], "4", 0);
      ("pending call, count reached n", "LOST", [ 1; 2; 4 ], "4", 1);
      ("call gave up, never executed", "LOST", [ 1; 2; 3 ], "3", 1);
      ("repeated response", "DOUBLE-EXECUTION", [ 1; 2; 2; 3 ], "4", 1);
      ("count above n", "DOUBLE-EXECUTION", [ 1; 2; 3; 4 ], "5", 1);
      ("no live replica", "LOST", [ 1; 2; 3; 4 ], "no-live-replica", 1);
    ]

let shard () =
  Bench_lib.Shard_bench.run ~quick:true ~shards:[ 1; 2 ] ~app:"leveldb" ()

let compaction () = Bench_lib.Ablate.run ~quick:true ~only:"compaction" ()

let check_sweep () =
  Bench_lib.Check_bench.run ~quick:true ~stack:"rex" ~app:"kv"
    ~nemesis:"partition" ~seeds:5 ()

let suite =
  [
    Alcotest.test_case "dedup exactly-once under faults (quick)" `Slow
      (smoke dedup);
    Alcotest.test_case "dedup verdict counts against n" `Quick dedup_verdict;
    Alcotest.test_case "shard scale-out + failover (quick)" `Slow
      (smoke shard);
    Alcotest.test_case "trace compaction ablation (quick)" `Slow
      (smoke compaction);
    Alcotest.test_case "check sweep rex/kv/partition (quick)" `Slow
      (smoke check_sweep);
  ]
