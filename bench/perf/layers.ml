(* Metrics of one phase: the stack's end-to-end latencies and its
   per-layer figures, named "<stack>.<metric>" and
   "<stack>.<layer>.<metric>".  Registry counters are differenced over
   the measured window; registry histograms were reset at its start and
   are bucketed (about 19% wide), which their names say. *)

let ms x = 1e3 *. x

(* Latency from scheduled arrival, and call time from call start, of the
   measured requests that got an answer; plus the rest of the phase's
   request accounting. *)
type requests = {
  latency : float array;  (* sorted, seconds *)
  call : float array;  (* sorted, seconds *)
  lateness : float list;  (* call start minus scheduled arrival *)
  arrivals : int;
  failed : int;
  shed : int;
  ordered : int;  (* answered requests that went through consensus *)
}

let requests (p : Phase.t) =
  let d = p.d in
  let lat = ref [] and call = ref [] and late = ref [] in
  let arrivals = ref 0 and failed = ref 0 and shed = ref 0 and ordered = ref 0 in
  for i = 0 to d.dispatched - 1 do
    if Drive.measured d i then begin
      incr arrivals;
      let s = Drive.status d i in
      if s = Drive.shed then incr shed
      else late := (d.started.(i) -. Drive.due d i) :: !late;
      if s = Drive.ok then begin
        lat := (d.finished.(i) -. Drive.due d i) :: !lat;
        call := (d.finished.(i) -. d.started.(i)) :: !call;
        if not (d.evs.(i).read && d.query_reads) then incr ordered
      end
      else incr failed
    end
  done;
  {
    latency = Metric.sorted_of_list !lat;
    call = Metric.sorted_of_list !call;
    lateness = !late;
    arrivals = !arrivals;
    failed = !failed;
    shed = !shed;
    ordered = !ordered;
  }

(* Longest gap between successive acknowledged writes in the window. *)
let unavail (p : Phase.t) =
  let d = p.d in
  let t = ref [] in
  for i = 0 to d.dispatched - 1 do
    if Drive.measured d i && (not d.evs.(i).read) && Drive.status d i = Drive.ok then
      t := d.finished.(i) :: !t
  done;
  let a = Metric.sorted_of_list !t in
  let gap = ref 0. in
  for i = 1 to Array.length a - 1 do
    gap := Float.max !gap (a.(i) -. a.(i - 1))
  done;
  !gap

(* End-to-end: p50 for Rex and SMR, the tail for every stack (p99 for
   Eve, whose short phase has about 3k samples, p999 elsewhere), and,
   under failover, Rex's and SMR's unavailability. *)
let e2e (p : Phase.t) r =
  let s = Stack.name p.spec.kind in
  let pct q = ms (Metric.percentile r.latency q) in
  let headline = p.spec.kind = Stack.Rex || p.spec.kind = Stack.Smr in
  List.concat
    [
      (if headline then [ Metric.v (s ^ ".p50_ms") "ms" (pct 0.5) ] else []);
      (if p.spec.kind = Stack.Eve then [ Metric.v (s ^ ".p99_ms") "ms" (pct 0.99) ]
       else [ Metric.v (s ^ ".p999_ms") "ms" (pct 0.999) ]);
      (if headline && p.spec.fault <> None then
         [ Metric.v (s ^ ".unavail_ms") "ms" (ms (unavail p)) ]
       else []);
    ]

let layers (p : Phase.t) r =
  let s = Stack.name p.spec.kind in
  let m ?better ?kind name = Metric.v ?better ?kind (s ^ "." ^ name) in
  let count name v = m name "count" (float_of_int v) in
  let reqs = float (Array.length r.latency) in
  let per_req x = if reqs > 0. then x /. reqs else nan in
  let ordered = float r.ordered in
  let window = p.s1.at -. p.s0.at in
  let leader = p.leader0 and last_leader = p.leader1 in
  let util node cores =
    (p.s1.busy.(node) -. p.s0.busy.(node)) /. (float cores *. window)
  in
  let hist ?node sub name f =
    match Phase.histogram p ?node sub name with Some h -> f h | None -> 0.
  in
  let frontend () =
    let lease = Phase.delta p "frontend/reads_fast_lease"
    and quorum = Phase.delta p "frontend/reads_fast_quorum"
    and fallback = Phase.delta p "frontend/reads_ordered_fallback" in
    let reads = lease +. quorum +. fallback in
    let share x = if reads > 0. then x /. reads else 0. in
    [
      m "frontend.read_lease_share" "ratio" ~better:Metric.Higher (share lease);
      m "frontend.read_quorum_share" "ratio" (share quorum);
      m "frontend.busy" "count"
        (Phase.delta p "frontend/adm_reject_queue"
        +. Phase.delta p "frontend/adm_reject_global"
        +. Phase.delta p "frontend/adm_reject_client");
      m "frontend.dup_hits" "count" (Phase.delta p "frontend/dup_hits");
      m "frontend.sessions" "count" (Phase.value p.s1 ~node:last_leader "frontend/sessions");
    ]
  in
  let common =
    [
      m "client.call_ms.p50" "ms" (ms (Metric.percentile r.call 0.5));
      m "client.call_ms.p999" "ms" (ms (Metric.percentile r.call 0.999));
      count "client.failed" r.failed;
      m "batch.reqs_per_commit" "req" ~better:Metric.Higher
        (ordered /. Float.max 1. (Phase.delta p "paxos/commits"));
      m "paxos.commit_ms.p50_bucket" "ms" (ms (hist "paxos" "commit_latency" Obs.Histogram.p50));
      m "paxos.commit_ms.p99_bucket" "ms" (ms (hist "paxos" "commit_latency" Obs.Histogram.p99));
      m "paxos.commit_ms.mean" "ms" (ms (hist "paxos" "commit_latency" Obs.Histogram.mean));
      m "net.msgs_per_req" "msg" (per_req (Phase.delta p "net/messages"));
      m "net.bytes_per_req" "B" (per_req (Phase.delta p "net/bytes"));
      m "sim.events_per_req" "event" (per_req (Phase.delta p "sim/events_dispatched"));
      m "sim.wall_us_per_req" "us" ~kind:Metric.Wall (per_req (1e6 *. p.measure_wall));
      m "sim.cpu_wait_ms.p99_bucket" "ms"
        (ms (hist ~node:leader "sim" "cpu_queue_wait" Obs.Histogram.p99));
      m "sim.cpu_wait_ms.mean" "ms"
        (ms (hist ~node:leader "sim" "cpu_queue_wait" Obs.Histogram.mean));
      m "exec.leader_util" "ratio" (util leader Stack.cores);
      m "gc.minor_words_per_req" "word" ~kind:Metric.Wall (per_req p.minor_words);
      m "gc.promoted_words_per_req" "word" ~kind:Metric.Wall (per_req p.promoted_words);
    ]
  in
  let failover =
    match p.election_ms with
    | None -> []
    | Some e ->
      m "paxos.campaigns" "count" (Phase.delta p "paxos/campaigns")
      :: m "failover.election_ms" "ms" e
      :: (match p.catchup_ms with
         | Some c -> [ m "failover.catchup_ms" "ms" c ]
         | None -> [])
  in
  let specific =
    match p.spec.kind with
    | Stack.Smr -> frontend ()
    | Stack.Rex ->
      let followers = List.filter (( <> ) leader) Stack.replicas in
      let mean l = List.fold_left ( +. ) 0. l /. float (List.length l) in
      let per_ordered x = if ordered > 0. then x /. ordered else nan in
      frontend ()
      @ [
        m "rexsync.events_per_req" "event"
          (per_ordered (Phase.delta p "rexsync/events_recorded"));
        m "rexsync.edges_per_req" "edge" (per_ordered (Phase.delta p "rexsync/edges_recorded"));
        m "rexsync.replay_wait_ms.p99_bucket" "ms"
          (ms (hist "rexsync" "replay_wait" Obs.Histogram.p99));
        m "sim.lock_wait_ms.p99_bucket" "ms" (ms (hist "sim" "lock_wait" Obs.Histogram.p99));
        m "exec.follower_util" "ratio"
          (mean (List.map (fun n -> util n Stack.cores) followers));
        m "flow.stall_ms" "ms" (ms (hist ~node:leader "rex" "flow_stall_time" Obs.Histogram.sum));
        m "trace.resident_events" "event"
          (Phase.value p.s1 ~node:last_leader "trace/resident_events");
      ]
    | Stack.Cbase | Stack.Early ->
      [
        m "sched.barrier_stalls" "count" (Phase.delta p "sched/barrier_stalls");
        m "sched.ready_width_max" "task"
          (Phase.value p.s1 ~node:last_leader "sched/ready_width_max");
        m "sched.graph_size_max" "task"
          (Phase.value p.s1 ~node:last_leader "sched/graph_size_max");
        m "sched.worker_util" "ratio"
          (Phase.delta p ~node:leader "sched/busy_time_s" /. (float Stack.workers *. window));
      ]
    | Stack.Eve ->
      let batches = Phase.delta p ~node:leader "eve/batches" in
      [
        m "batch_size.mean" "req" ~better:Metric.Higher
          (hist ~node:leader "eve" "batch_size" Obs.Histogram.mean);
        m "rollbacks" "count" (Phase.delta p "eve/rollbacks");
        m "wall_ms_per_batch" "ms" ~kind:Metric.Wall
          (ms p.measure_wall /. Float.max 1. batches);
      ]
  in
  common @ failover @ specific
