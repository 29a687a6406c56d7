let () =
  Alcotest.run "ccrefine"
    [
      (* must run first: it forks daemons, which the OCaml 5 runtime
         refuses once any other suite has spawned a domain (see
         Test_util.with_forked_daemon) *)
      Suite_serve.suite;
      Suite_ckpt.suite;
      Suite_journal.suite;
      Suite_value.suite;
      Suite_expr.suite;
      Suite_validate.suite;
      Suite_reqrep.suite;
      Suite_link.suite;
      Suite_rendezvous.suite;
      Suite_async.suite;
      Suite_absmap.suite;
      Suite_explore.suite;
      Suite_par_explore.suite;
      Suite_store.suite;
      Suite_obs.suite;
      Suite_compile.suite;
      Suite_sim.suite;
      Suite_protocols.suite;
      Suite_faults.suite;
      Suite_runtime.suite;
      Suite_engine.suite;
      Suite_symmetry.suite;
      Suite_viz.suite;
      Suite_prog.suite;
      Suite_parse.suite;
      Suite_random.suite;
      Suite_fuzz.suite;
    ]
