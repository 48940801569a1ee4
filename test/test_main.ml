let () =
  Alcotest.run "dca"
    (Test_support.suites @ Test_frontend.suites @ Test_ir.suites @ Test_interp.suites @ Test_analysis.suites
   @ Test_dca.suites @ Test_profiling.suites @ Test_baselines.suites @ Test_parallel.suites
   @ Test_progs.suites @ Test_cexport.suites @ Test_experiments.suites @ Test_session.suites
   @ Test_telemetry.suites @ Test_fuzz.suites @ Test_fault.suites @ Test_serve.suites
   @ Test_staticproof.suites @ Test_shared_run.suites @ Test_eval.suites @ Test_reports.suites)
