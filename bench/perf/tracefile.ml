(* Chrome trace_event output for a traced run.  Spans stay in each
   engine's collector while its deployment runs; when the deployment is
   done they are appended here and the collector is cleared, so memory
   holds one deployment's spans at a time.  Each deployment gets its own
   block of process ids (10 per deployment: nodes 0-3 and the
   benchmark's own track, Phase.perf_pid). *)

open Sim

type t = {
  oc : out_channel option;
  mutable first : bool;
  mutable deployments : int;
  mutable spans : int;
  mutable dropped : int;
}

let create path =
  let oc = Option.map open_out_bin path in
  Option.iter (fun oc -> output_string oc "{\"traceEvents\":[\n") oc;
  { oc; first = true; deployments = 0; spans = 0; dropped = 0 }

let emit t oc s =
  if not t.first then output_string oc ",\n";
  t.first <- false;
  output_string oc s

let us x = Json.num (1e6 *. x)

let add t ~label eng =
  let sp = Obs.spans (Engine.obs eng) in
  let base = 10 * t.deployments in
  t.deployments <- t.deployments + 1;
  t.spans <- t.spans + Obs.Span.length sp;
  t.dropped <- t.dropped + Obs.Span.dropped sp;
  Option.iter
    (fun oc ->
      List.iter
        (fun (pid, what) ->
          emit t oc
            (Printf.sprintf
               "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,\"args\":{\"name\":%s}}"
               (base + pid) (Json.escape (label ^ " " ^ what))))
        ((Phase.perf_pid, "perf")
        :: List.map (fun n -> (n, "node " ^ string_of_int n)) (Stack.client_node :: Stack.replicas));
      List.iter
        (fun (e : Obs.Span.event) ->
          let args =
            Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) e.ev_args)
          in
          emit t oc
            (Printf.sprintf
               "{\"name\":%s,\"cat\":%s,\"ph\":\"%s\",\"ts\":%s,%s\"pid\":%d,\"tid\":%d,\"args\":%s}"
               (Json.escape e.ev_name) (Json.escape e.ev_cat)
               (if e.ev_instant then "i" else "X")
               (us e.ev_ts)
               (if e.ev_instant then "\"s\":\"t\"," else "\"dur\":" ^ us e.ev_dur ^ ",")
               (base + e.ev_pid) e.ev_tid (Json.to_string args)))
        (Obs.Span.events sp))
    t.oc;
  Obs.Span.clear sp

let close t =
  Option.iter
    (fun oc ->
      output_string oc
        (Printf.sprintf
           "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"spans\":%d,\"dropped_spans\":%d}}\n"
           t.spans t.dropped);
      close_out oc)
    t.oc
