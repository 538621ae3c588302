(* Wall-clock micro-benchmarks (Bechamel): the constant factors of this
   OCaml implementation — one Test.make per core operation underlying the
   paper's tables and figures (trace recording for Fig. 7's record
   overhead, delta codec for the §6.3 byte counts, scoreboard and vclock
   ops for replay cost, Paxos message codec for the agree stage).

   The trace-size series (1k/10k/100k) document the bounded-memory
   claims: window extraction via a cursor and the steady-state
   propose+compact cycle must not scale with accumulated history. *)

open Bechamel
open Toolkit

let mk_event slot clock : Event.t =
  {
    id = { slot; clock };
    kind = Event.Acquire;
    resource = 42;
    version = clock;
    payload = "";
  }

(* Round-robin events over 4 slots, one cross-slot edge per round. *)
let build_trace n_events =
  let t = Trace.create ~slots:4 () in
  for c = 1 to n_events / 4 do
    for s = 0 to 3 do
      Trace.append t (mk_event s c)
    done;
    if c > 1 then
      Trace.add_edge t ~src:{ slot = 0; clock = c - 1 } ~dst:{ slot = 1; clock = c }
  done;
  t

let sizes = [ 1_000; 10_000; 100_000 ]

let test_event_encode =
  Test.make ~name:"event encode (16B target)"
    (Staged.stage (fun () ->
         let b = Codec.sink ~initial_capacity:32 () in
         Event.write b (mk_event 3 123456)))

let encoded_event =
  let b = Codec.sink () in
  Event.write b (mk_event 3 123456);
  Codec.contents b

let test_event_decode =
  Test.make ~name:"event decode"
    (Staged.stage (fun () -> ignore (Event.read (Codec.source encoded_event))))

let test_trace_append =
  Test.make ~name:"trace append 1k events + edges"
    (Staged.stage (fun () -> ignore (build_trace 1_000)))

let big_trace = build_trace 1_000

let test_delta_roundtrip =
  Test.make ~name:"delta extract+encode+decode (1k events)"
    (Staged.stage (fun () ->
         let d = Trace.Delta.extract big_trace ~base:(Trace.Cut.zero ~slots:4) in
         let b = Codec.sink () in
         Trace.Delta.write b d;
         ignore (Trace.Delta.read (Codec.source (Codec.contents b)))))

let test_vclock =
  Test.make ~name:"vclock join+dominates (32 slots)"
    (Staged.stage
       (let a = Vclock.create ~slots:32 and b = Vclock.create ~slots:32 in
        fun () ->
          Vclock.join a b;
          ignore (Vclock.dominates a { slot = 7; clock = 3 })))

let test_paxos_msg =
  Test.make ~name:"paxos accept encode+decode"
    (Staged.stage (fun () ->
         let m =
           Paxos.Msg.Accept
             {
               ballot = { round = 7; replica = 2 };
               instance = 123456;
               value = String.make 256 'x';
               prior = [];
               commits = [];
             }
         in
         ignore (Paxos.Msg.decode (Paxos.Msg.encode m))))

(* --- Trace-size series --- *)

let tests_last_consistent =
  List.map
    (fun n ->
      let t = build_trace n in
      Test.make
        ~name:(Printf.sprintf "last_consistent cut (%dk events)" (n / 1000))
        (Staged.stage (fun () ->
             ignore (Trace.last_consistent t (Trace.end_cut t)))))
    sizes

(* Extract a 100-event tail window from traces of increasing history:
   the per-call binary search is the only history-dependent part. *)
let window = 100

let tail_base t =
  let e = Trace.Cut.to_array (Trace.end_cut t) in
  Trace.Cut.of_array (Array.map (fun w -> max 0 (w - (window / 4))) e)

let tests_extract_tail =
  List.map
    (fun n ->
      let t = build_trace n in
      let base = tail_base t in
      Test.make
        ~name:
          (Printf.sprintf "delta extract %d-event tail of %dk" window
             (n / 1000))
        (Staged.stage (fun () -> ignore (Trace.Delta.extract t ~base))))
    sizes

(* Apply the same tail window onto a fresh checkpoint-based receiver:
   the replica-side cost of one committed delta. *)
let tests_apply_window =
  List.map
    (fun n ->
      let t = build_trace n in
      let base = tail_base t in
      let d = Trace.Delta.extract t ~base in
      Test.make
        ~name:
          (Printf.sprintf "delta apply %d-event window (from %dk)" window
             (n / 1000))
        (Staged.stage (fun () ->
             let recv = Trace.create ~base ~slots:4 () in
             match Trace.Delta.apply recv d with
             | Ok () -> ()
             | Error msg -> failwith msg)))
    sizes

(* The primary's steady-state cycle: append a window, extract it through
   the cursor, encode it, and compact behind the last "checkpoint".  The
   trace stays bounded, so ns/run measures the per-window cost the
   proposer actually pays — independent of how long the run has gone. *)
let test_steady_state =
  let t = build_trace 1_000 in
  let cursor = Trace.Delta.cursor t ~base:(Trace.end_cut t) in
  Test.make ~name:(Printf.sprintf "steady state: append %d + write_next + compact" window)
    (Staged.stage (fun () ->
         let start = Trace.Cut.to_array (Trace.end_cut t) in
         for i = 1 to window / 4 do
           for s = 0 to 3 do
             Trace.append t (mk_event s (start.(s) + i))
           done;
           Trace.add_edge t
             ~src:{ slot = 0; clock = start.(0) + i }
             ~dst:{ slot = 1; clock = start.(1) + i }
         done;
         let base = Trace.Delta.cursor_base cursor in
         Trace.Delta.write_next (Codec.counting_sink ()) ~upto:(Trace.end_cut t)
           t cursor;
         Trace.compact t ~upto:base))

(* --- Open-loop load engine series (EXPERIMENTS.md §14) --- *)

(* The fleet-size claim: build one whole schedule, [n] sessions at
   0.4 req/s each (the kv-reads benchmark's ratio) over 5 s, so about
   2n arrivals.  ns/run over [gen_arrivals n] is the cost per arrival,
   the creation of the generator included. *)
let gen_sizes = [ 2_000; 20_000; 200_000; 1_000_000 ]

let gen_schedule n =
  let g =
    Load.Gen.create ~sessions:n ~duration:5.0
      ~profile:(Load.Arrivals.Steady (0.4 *. float_of_int n))
      ~keys:4096 ~theta:0.99 ~read_ratio:0.95 ~seed:7 ()
  in
  Load.Gen.pull g ~until:5.0 ignore

let gen_name n = Printf.sprintf "gen pull %dk sessions" (n / 1000)
let gen_arrivals =
  lazy (List.map (fun n -> (gen_name n, gen_schedule n)) gen_sizes)

let tests_gen_pull =
  List.map
    (fun n ->
      Test.make ~name:(gen_name n)
        (Staged.stage (fun () -> ignore (gen_schedule n))))
    gen_sizes

(* --- Simulator substrate series ---

   The per-event and per-message costs every simulated experiment pays.
   Each run drives a fresh fiber through a fixed number of operations and
   then runs the engine until they are done, so ns/run divided by the
   count is the per-operation cost (the one spawn is amortized). *)

let sim_ops = 1_000

let bench_port = Sim.Net.port "bench"

let run_fiber eng f =
  ignore (Sim.Engine.spawn eng ~node:0 f);
  Sim.Engine.run ~until:(Sim.Engine.clock eng +. 1.) eng

(* [sim_ops] sleeps (schedule + pop + resume each) under a heap already
   holding [pending] far-future events, so each pop sifts through a heap
   of that depth. *)
let tests_sim_sleep =
  List.map
    (fun pending ->
      let eng = Sim.Engine.create ~num_nodes:1 () in
      for i = 1 to pending do
        Sim.Engine.schedule eng ~at:(1e12 +. float_of_int i) ignore
      done;
      Test.make
        ~name:(Printf.sprintf "sim sleep x%d (%dk pending)" sim_ops (pending / 1000))
        (Staged.stage (fun () ->
             run_fiber eng (fun () ->
                 for _ = 1 to sim_ops do
                   Sim.Engine.sleep 1e-6
                 done))))
    [ 1_000; 100_000 ]

let test_net_send =
  let eng = Sim.Engine.create ~num_nodes:2 () in
  let net = Sim.Net.create eng in
  Sim.Net.register net ~node:1 ~port:bench_port (fun ~src:_ _ -> ());
  Test.make
    ~name:(Printf.sprintf "sim net send+deliver x%d" sim_ops)
    (Staged.stage (fun () ->
         run_fiber eng (fun () ->
             for _ = 1 to sim_ops do
               Sim.Net.send net ~src:0 ~dst:1 ~port:bench_port "0123456789abcdef"
             done)))

(* Request, reply and one park per call; the call cancels its timeout
   event when the reply arrives. *)
let test_rpc_call =
  let eng = Sim.Engine.create ~num_nodes:2 () in
  let rpc = Sim.Rpc.create (Sim.Net.create eng) in
  Sim.Rpc.serve rpc ~node:1 ~port:bench_port (fun ~src:_ body -> body);
  Test.make
    ~name:(Printf.sprintf "sim rpc call round trip x%d" sim_ops)
    (Staged.stage (fun () ->
         run_fiber eng (fun () ->
             for _ = 1 to sim_ops do
               ignore (Sim.Rpc.call rpc ~src:0 ~dst:1 ~port:bench_port ~timeout:0.5 "ping")
             done)))

let test_engine_now =
  let eng = Sim.Engine.create ~num_nodes:1 () in
  Test.make
    ~name:(Printf.sprintf "sim now in a fiber x%d" sim_ops)
    (Staged.stage (fun () ->
         run_fiber eng (fun () ->
             for _ = 1 to sim_ops do
               ignore (Sys.opaque_identity (Sim.Engine.now ()))
             done)))

(* Every simulated lock operation asks which fiber runs it: an
   uncontended lock+unlock pair of a [Sim.Msync] mutex. *)
let test_mutex_pair =
  let eng = Sim.Engine.create ~num_nodes:1 () in
  let m = Sim.Msync.Mutex.create eng in
  Test.make
    ~name:(Printf.sprintf "sim mutex lock+unlock x%d" sim_ops)
    (Staged.stage (fun () ->
         run_fiber eng (fun () ->
             for _ = 1 to sim_ops do
               Sim.Msync.Mutex.lock m;
               Sim.Msync.Mutex.unlock m
             done)))

let test_engine_self =
  let eng = Sim.Engine.create ~num_nodes:1 () in
  Test.make
    ~name:(Printf.sprintf "sim self in a fiber x%d" sim_ops)
    (Staged.stage (fun () ->
         run_fiber eng (fun () ->
             for _ = 1 to sim_ops do
               ignore (Sys.opaque_identity (Sim.Engine.self ()))
             done)))

(* The zipf CDF-rebuild fix: [create] memoizes the table per (n, theta),
   [create_uncached] is the old behavior — the per-instantiation cost the
   load engine used to pay on every generator. *)
let zipf_n = 100_000

let test_zipf_create_cached =
  ignore (Workload.Zipf.create ~n:zipf_n ~theta:0.99);
  Test.make ~name:"zipf create 100k ranks (cached)"
    (Staged.stage (fun () ->
         ignore (Workload.Zipf.create ~n:zipf_n ~theta:0.99)))

let test_zipf_create_uncached =
  Test.make ~name:"zipf create 100k ranks (uncached)"
    (Staged.stage (fun () ->
         ignore (Workload.Zipf.create_uncached ~n:zipf_n ~theta:0.99)))

(* One draw (~60 ns) is below what a single-call series resolves, so
   each run takes [zipf_draws] draws and the table prints ns per draw. *)
let zipf_draws = 1_000
let zipf_sample_name = "zipf sample (100k ranks)"

let test_zipf_sample =
  let z = Workload.Zipf.create ~n:zipf_n ~theta:0.99 in
  let rng = Sim.Rng.create 11 in
  Test.make ~name:zipf_sample_name
    (Staged.stage (fun () ->
         for _ = 1 to zipf_draws do
           ignore (Sys.opaque_identity (Workload.Zipf.sample z rng))
         done))

(* Series whose run covers many operations: name -> (operation, count),
   printed as ns per operation beside ns/run. *)
let per_op =
  lazy
    ((zipf_sample_name, ("draw", zipf_draws))
    :: List.map (fun (name, n) -> (name, ("arrival", n))) (Lazy.force gen_arrivals))

(* --- Session-table series: Eve's per-batch verify and rollback ---

   [Table.digest] is read once per batch and a savepoint is taken once
   per batch; both must cost the same at 1k and 100k sessions (the
   digest used to re-encode the whole table). *)
let session_table n =
  let t = Rex_core.Session.Table.create (Obs.create ()) ~stack:"bench" ~node:0 () in
  for client = 1 to n do
    for seq = 0 to 3 do
      Rex_core.Session.Table.record t ~client ~seq ~reply:(string_of_int seq)
    done
  done;
  t

let tests_session_digest =
  List.map
    (fun n ->
      let t = session_table n in
      Test.make
        ~name:(Printf.sprintf "session digest (%dk sessions)" (n / 1000))
        (Staged.stage (fun () -> ignore (Rex_core.Session.Table.digest t))))
    sizes

let tests_session_savepoint =
  List.map
    (fun n ->
      let t = session_table n in
      Test.make
        ~name:(Printf.sprintf "session savepoint+record+undo (%dk)" (n / 1000))
        (Staged.stage (fun () ->
             let undo = Rex_core.Session.Table.savepoint t in
             Rex_core.Session.Table.record t ~client:(n / 2) ~seq:4 ~reply:"4";
             undo ())))
    sizes

(* --- Reply-window series: the exactly-once cost of every write ---

   Each client holds a full 64-reply window, and each run moves to the
   next client.  Looking up a client's next seq and recording it in
   order must not walk the window. *)
let full_window_table n =
  let t = Rex_core.Session.Table.create (Obs.create ()) ~stack:"bench" ~node:0 () in
  let window = Rex_core.Session.Table.window t in
  for client = 0 to n - 1 do
    for seq = 0 to window - 1 do
      Rex_core.Session.Table.record t ~client ~seq ~reply:(string_of_int seq)
    done
  done;
  (t, Array.make n window)

(* One table per size, shared by both series: recording advances a
   client's next seq, so the lookup's seq stays fresh.  Built on first
   use, so other bench subcommands do not pay for it. *)
let tests_session_window =
  List.concat_map
    (fun n ->
      let table = lazy (full_window_table n) in
      let allocate () = Lazy.force table in
      let client = ref 0 in
      let step () =
        client := (!client + 1) mod n;
        !client
      in
      [
        Test.make_with_resource
          ~name:(Printf.sprintf "session lookup fresh seq (%dk, full)" (n / 1000))
          Test.uniq ~allocate ~free:ignore
          (Staged.stage (fun (t, next) ->
               let c = step () in
               ignore (Rex_core.Session.Table.lookup t ~client:c ~seq:next.(c))));
        Test.make_with_resource
          ~name:(Printf.sprintf "session record in order (%dk, full)" (n / 1000))
          Test.uniq ~allocate ~free:ignore
          (Staged.stage (fun (t, next) ->
               let c = step () in
               let seq = next.(c) in
               next.(c) <- seq + 1;
               Rex_core.Session.Table.record t ~client:c ~seq ~reply:"r"));
      ])
    [ 1_000; 10_000 ]

let tests =
  [
    test_event_encode;
    test_event_decode;
    test_trace_append;
    test_delta_roundtrip;
    test_vclock;
    test_paxos_msg;
  ]
  @ tests_last_consistent @ tests_extract_tail @ tests_apply_window
  @ [ test_steady_state ] @ tests_gen_pull
  @ tests_sim_sleep
  @ [ test_net_send; test_rpc_call; test_engine_now; test_engine_self;
      test_mutex_pair ]
  @ [ test_zipf_create_cached; test_zipf_create_uncached; test_zipf_sample ]
  @ tests_session_digest @ tests_session_savepoint
  @ tests_session_window

let run () =
  Printf.printf "\n== Bechamel wall-clock micro-benchmarks ==\n%!";
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None ()
  in
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let stats = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> (
            Printf.printf "%-45s %12.1f ns/run" name est;
            match List.assoc_opt name (Lazy.force per_op) with
            | Some (op, n) ->
              Printf.printf " %8.1f ns/%s (%d)\n%!" (est /. float n) op n
            | None -> print_newline ())
          | Some _ | None -> Printf.printf "%-45s (no estimate)\n%!" name)
        stats)
    tests
