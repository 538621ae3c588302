open Sim

let seek_time = 4.5e-3
let bandwidth = 200e6

type t = {
  ncq : Par.Backend.sem;
  transfer : Par.Backend.mutex;
  mutable completed : int;
}

let create ?(queue_depth = 5) bk =
  {
    ncq = Par.Backend.sem bk queue_depth;
    transfer = Par.Backend.mutex bk;
    completed = 0;
  }

let io t ~bytes_len =
  t.ncq.s_acquire ();
  Engine.sleep seek_time;
  t.ncq.s_release ();
  t.transfer.m_lock ();
  Engine.sleep (float_of_int bytes_len /. bandwidth);
  t.transfer.m_unlock ();
  t.completed <- t.completed + 1

let ios_completed t = t.completed
