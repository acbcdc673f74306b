(* Test entry point: one alcotest run over all module suites. *)

let () =
  Alcotest.run "schedsearch"
    [
      ("simcore.misc", Test_simcore_misc.suite);
      ("workload", Test_workload.suite);
      ("workload.swf", Test_swf.suite);
      ("workload.generator", Test_generator.suite);
      ("workload.model", Test_model.suite);
      ("workload.arrivals", Test_arrival_stats.suite);
      ("cluster.profile", Test_profile.suite);
      ("cluster.misc", Test_cluster_misc.suite);
      ("metrics", Test_metrics.suite);
      ("sched", Test_sched.suite);
      ("core.objective", Test_objective.suite);
      ("core.tree_enum", Test_tree_enum.suite);
      ("core.search", Test_search.suite);
      ("core.policy", Test_search_policy.suite);
      ("sched.variants", Test_variants.suite);
      ("sched.more", Test_sched_more.suite);
      ("sim.engine", Test_engine.suite);
      ("check", Test_check.suite);
      ("sim.gantt", Test_gantt.suite);
      ("metrics.export", Test_export.suite);
      ("sim.queueing-theory", Test_queueing_theory.suite);
      ("experiments.spec", Test_policy_spec.suite);
      ("simcore.pool", Test_pool.suite);
      ("simcore.telemetry", Test_telemetry.suite);
      ("sim.series", Test_series.suite);
      ("experiments.parallel", Test_parallel_determinism.suite);
      ("fairshare", Test_fairshare.suite);
      ("cross-policy", Test_cross_policy.suite);
      ("edge-cases", Test_edge_cases.suite);
      ("formatting", Test_formatting.suite);
      ("integration", Test_integration.suite);
    ]
