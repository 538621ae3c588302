(* Figure 10: failover timeline of the thumbnail server (paper §6.6).
   Two checkpoints early on, the primary killed, restarted 20 units
   later; per-bucket throughput shows the checkpoint dips, the
   election gap, and the long rejoin dip caused by aggressive flow
   control.  [scale] compresses the paper's 140-second timeline. *)

open Sim
module R = Rex_core

let run ?(scale = 0.1) () =
  let s = scale in
  let total = 140. *. s in
  let bucket = 1.0 *. s in
  let ckpt1 = 10. *. s and ckpt2 = 60. *. s in
  let kill_at = 71. *. s and restart_at = 91. *. s in
  let cfg =
    R.Config.make ~replicas:[ 0; 1; 2 ] ~workers:8
      ~heartbeat_period:(0.4 *. s)
      ~flow_staleness:(2.0 *. s) ~flow_window:4000
      ~ckpt_byte_cost:(4e-7 *. s) ()
  in
  let cluster =
    R.Cluster.launch ~seed:101 ~cores_per_node:16 cfg
      (Apps.Thumbnail.factory ~compute_cost:(3e-3 *. s) ())
  in
  let eng = R.Cluster.engine cluster in
  let t0 = Engine.clock eng in
  (* Saturating driver that follows the primary across failovers. *)
  let outstanding = ref 0 in
  let window = 64 in
  let gen = Workload.Mix.thumbnail ~n_images:1_000_000 in
  let rng = Rng.create 3 in
  ignore
    (Engine.spawn eng ~node:3 ~name:"fig10-driver" (fun () ->
         while Engine.now () -. t0 < total do
           (match R.Cluster.primary cluster with
           | Some p when !outstanding < window ->
             incr outstanding;
             R.Server.submit p (gen rng) (fun _ -> decr outstanding)
           | Some _ | None -> Engine.sleep (bucket /. 20.));
           if !outstanding >= window then Engine.sleep (bucket /. 50.)
         done));
  (* Scripted events. *)
  let primary_node () =
    match R.Cluster.primary cluster with
    | Some p -> Some (R.Server.node p)
    | None -> None
  in
  Engine.schedule eng ~at:(t0 +. ckpt1) (fun () ->
      Option.iter
        (fun n -> R.Server.request_checkpoint (R.Cluster.server cluster n))
        (primary_node ()));
  Engine.schedule eng ~at:(t0 +. ckpt2) (fun () ->
      Option.iter
        (fun n -> R.Server.request_checkpoint (R.Cluster.server cluster n))
        (primary_node ()));
  let killed = ref (-1) in
  Engine.schedule eng ~at:(t0 +. kill_at) (fun () ->
      match primary_node () with
      | Some n ->
        killed := n;
        R.Cluster.crash cluster n
      | None -> ());
  Engine.schedule eng ~at:(t0 +. restart_at) (fun () ->
      if !killed >= 0 then R.Cluster.restart cluster !killed);
  (* Sample replies per bucket, robust to server-object replacement. *)
  Printf.printf
    "\n== Fig. 10: thumbnail failover timeline (scale %.2fx; ckpt @%.1f/%.1f, \
     kill @%.1f, restart @%.1f) ==\n"
    s ckpt1 ckpt2 kill_at restart_at;
  Printf.printf "t\tthroughput(req/s)\tevent\n%!";
  let prev = Array.make 3 0 in
  let prev_srv : R.Server.t option array = Array.make 3 None in
  let steps = int_of_float (Float.round (total /. bucket)) in
  for step = 1 to steps do
    Engine.run ~until:(t0 +. (float_of_int step *. bucket)) eng;
    let replies = ref 0 in
    for n = 0 to 2 do
      let srv = R.Cluster.server cluster n in
      let now_count = (R.Server.stats srv).R.Server.replies_sent in
      let base =
        match prev_srv.(n) with
        | Some old when old == srv -> prev.(n)
        | _ -> 0 (* server was rebuilt; counters restarted *)
      in
      replies := !replies + max 0 (now_count - base);
      prev.(n) <- now_count;
      prev_srv.(n) <- Some srv
    done;
    let t = float_of_int step *. bucket in
    let annotate =
      if Float.abs (t -. ckpt1) < bucket /. 2. then "<- checkpoint 1"
      else if Float.abs (t -. ckpt2) < bucket /. 2. then "<- checkpoint 2"
      else if Float.abs (t -. kill_at) < bucket /. 2. then "<- primary killed"
      else if Float.abs (t -. restart_at) < bucket /. 2. then "<- replica rejoins"
      else ""
    in
    Printf.printf "%.1f\t%.0f\t%s\n%!" t
      (float_of_int !replies /. bucket)
      annotate
  done
