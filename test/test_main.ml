let () =
  Alcotest.run "lslp"
    [
      ("affine", Test_affine.suite);
      ("ir", Test_ir.suite);
      ("verifier-printer", Test_verifier.suite);
      ("canonical", Test_canonical.suite);
      ("frontend", Test_frontend.suite);
      ("loops", Test_loops.suite);
      ("analysis", Test_analysis.suite);
      ("costmodel", Test_costmodel.suite);
      ("interp", Test_interp.suite);
      ("reorder", Test_reorder.suite);
      ("graph", Test_graph.suite);
      ("cost", Test_cost.suite);
      ("codegen", Test_codegen.suite);
      ("pipeline", Test_pipeline.suite);
      ("kernels", Test_kernels.suite);
      ("figure8", Test_figure8.suite);
      ("width", Test_width.suite);
      ("reduction", Test_reduction.suite);
      ("properties", Test_qcheck.suite);
      ("arena", Test_arena.suite);
      ("check", Test_check.suite);
      ("cond", Test_cond.suite);
      ("robust", Test_robust.suite);
      ("telemetry", Test_telemetry.suite);
      ("obs", Test_obs.suite);
      ("trace", Test_trace.suite);
      ("id-gen", Test_id_gen.suite);
      ("lint", Test_lint.suite);
      ("domains", Test_domains.suite);
      ("service", Test_service.suite);
    ]
