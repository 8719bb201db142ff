(* Aggregated test runner for the whole repository. *)

let () =
  Alcotest.run "perspective"
    (Test_util.suite @ Test_isa.suite @ Test_uarch.suite @ Test_pipeline.suite
   @ Test_oracle.suite @ Test_kernel.suite @ Test_core.suite @ Test_isvgen.suite
   @ Test_scanner.suite @ Test_attacks.suite @ Test_sim.suite
   @ Test_experiments.suite @ Test_pool.suite @ Test_supervise.suite
   @ Test_service.suite @ Test_rescache.suite @ Test_equiv.suite
   @ Test_contracts.suite @ Test_reuse.suite)
