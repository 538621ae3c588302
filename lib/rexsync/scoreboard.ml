open Sim

type t = {
  executed : int array;
  waiters : Engine.waker Pqueue.t array;
      (* per slot, keyed by the clock the waiter needs *)
  guard : Par.Guard.t option;
      (* serializes watermark/waiter state on nondeterministic backends;
         [None] on the simulator, where every helper is a plain call *)
}

let create ?guard ~slots () =
  {
    executed = Array.make slots 0;
    waiters = Array.init slots (fun _ -> Pqueue.create ());
    guard;
  }

let locked t f = match t.guard with None -> f () | Some g -> Par.Guard.with_ g f

let watermark t slot = t.executed.(slot)
let cut t = locked t (fun () -> Trace.Cut.of_array t.executed)

let advance t ~slot ~clock =
  locked t (fun () ->
      if clock <> t.executed.(slot) + 1 then
        invalid_arg
          (Printf.sprintf "Scoreboard.advance: slot %d at %d, got clock %d"
             slot t.executed.(slot) clock);
      t.executed.(slot) <- clock;
      let q = t.waiters.(slot) in
      while (not (Pqueue.is_empty q)) && int_of_float (Pqueue.min_priority q) <= clock do
        Engine.wake (Pqueue.pop_value q)
      done)

let wait_for t (id : Event.Id.t) =
  if locked t (fun () -> t.executed.(id.slot) >= id.clock) then false
  else begin
    (* The watermark re-check inside the park register closes the
       domains-backend race where [advance] lands between our check and
       the enqueue (a lost wakeup).  On the simulator nothing can run in
       between, so the wake-immediately branch is never taken and the
       event sequence is exactly the pre-backend one. *)
    let passed () = t.executed.(id.slot) >= id.clock in
    while
      Engine.park (fun w ->
          locked t (fun () ->
              if passed () then Engine.wake w
              else
                Pqueue.add t.waiters.(id.slot)
                  ~priority:(float_of_int id.clock) w));
      not (locked t passed)
    do
      ()
    done;
    true
  end

let reset t cut =
  locked t (fun () ->
      let a = Trace.Cut.to_array cut in
      if Array.length a <> Array.length t.executed then
        invalid_arg "Scoreboard.reset";
      Array.blit a 0 t.executed 0 (Array.length a);
      Array.iter
        (fun q ->
          if not (Pqueue.is_empty q) then
            invalid_arg "Scoreboard.reset: waiters present")
        t.waiters)
