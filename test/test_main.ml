(** Test aggregator: one alcotest section per library. *)

let () =
  Alcotest.run "newton"
    [
      ("util", Test_util.suite);
      ("json", Test_json.suite);
      ("packet", Test_packet.suite);
      ("sketch", Test_sketch.suite);
      ("trace", Test_trace.suite);
      ("trace_io", Test_trace_io.suite);
      ("series", Test_series.suite);
      ("dataplane", Test_dataplane.suite);
      ("register_alloc", Test_register_alloc.suite);
      ("query", Test_query.suite);
      ("parser", Test_parser.suite);
      ("extras", Test_extras.suite);
      ("p4gen", Test_p4gen.suite);
      ("p4sim", Test_p4sim.suite);
      ("validate", Test_p4sim.lint_suite);
      ("compiler", Test_compiler.suite);
      ("network", Test_network.suite);
      ("runtime", Test_runtime.suite);
      ("data_path", Test_data_path.suite);
      ("parallel", Test_parallel.suite);
      ("arena", Test_arena.suite);
      ("telemetry", Test_telemetry.suite);
      ("controller", Test_controller.suite);
      ("partial_deploy", Test_partial_deploy.suite);
      ("baselines", Test_baselines.suite);
      ("core", Test_core.suite);
      ("integration", Test_integration.suite);
      ("properties", Test_properties.suite);
      ("reactive", Test_reactive.suite);
      ("refine", Test_refine.suite);
      ("recovery", Test_recovery.suite);
      ("ingest", Test_ingest.suite);
      ("analysis", Test_analysis.suite);
      ("space", Test_space.suite);
      ("service", Test_service.suite);
    ]
