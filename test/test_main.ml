let () =
  Alcotest.run "rex"
    [ ("codec", Test_codec.suite); ("obs", Test_obs.suite); ("sim", Test_sim.suite); ("trace", Test_trace.suite); ("rexsync", Test_rexsync.suite); ("paxos", Test_paxos.suite); ("lease", Test_lease.suite); ("rex", Test_rex.suite); ("apps", Test_apps.suite); ("shard", Test_shard.suite); ("integration", Test_integration.suite); ("eve", Test_eve.suite); ("session", Test_session.suite); ("check", Test_check.suite); ("smoke", Test_smoke.suite); ("par", Test_par.suite); ("sched", Test_sched.suite); ("load", Test_load.suite); ("log_server", Test_log_server.suite) ]
