open Sim
module R = Rex_core
module L = R.Log_server

type t = Obs.Metric.counter L.t

let batch_max = 64

(* All replicas execute committed requests in order, one at a time: the
   sequential execution model of classic SMR. *)
let serial (env : L.env) =
  let executed =
    Obs.counter (Engine.obs env.eng) ~subsystem:"smr"
      ~labels:[ ("node", string_of_int env.node) ]
      "requests_executed"
  in
  let applied = ref 0 in
  let run_one = function
    | L.Tick f -> f ()
    | L.Request (request, cb) -> (
      let resp =
        try env.app.R.App.execute ~request
        with exn ->
          Logs.warn (fun m ->
              m "smr[%d]: handler raised %s" env.node (Printexc.to_string exn));
          "ERR:handler-exception"
      in
      Obs.Metric.incr executed;
      match cb with Some cb -> cb (Some resp) | None -> ())
  in
  ( executed,
    {
      L.deliver =
        (fun instance items ->
          List.iter run_one items;
          if instance > !applied then applied := instance);
      gate_read = ignore;
      applied = (fun () -> !applied);
      form_batch = L.take batch_max;
      await_execution = false;
    } )

let create net rpc cfg ~node ~paxos_store factory =
  L.create net rpc cfg ~node ~paxos_store ~stack:"smr" serial factory

let start = L.start
let replay = L.replay
let node = L.node
let is_primary = L.is_primary
let session_table = L.session_table
let frontend = L.frontend
let submit = L.submit
let query = L.query
let app_digest = L.app_digest
let executed_requests t = Obs.Metric.value (L.state t)
