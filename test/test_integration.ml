(* End-to-end integration tests: run the full pipeline (generator ->
   engine -> metrics) on a scaled-down month and check the paper's
   qualitative claims hold. *)

let month label =
  let profile = Workload.Month_profile.find label in
  let config = { Workload.Generator.default_config with scale = 0.12; seed = 9 } in
  Workload.Generator.month ~config profile

let simulate policy trace =
  Sim.Run.simulate ~r_star:Sim.Engine.Actual ~policy trace

let dds budget =
  fst (Core.Search_policy.policy (Core.Search_policy.dds_lxf_dynb ~budget))

let test_backfill_tradeoff () =
  (* Section 3.2's key prior result: LXF-backfill improves average
     measures over FCFS-backfill but typically degrades the max wait
     under load. *)
  let trace =
    Workload.Trace.scale_load (month "7/03") ~capacity:128 ~target:0.95
  in
  let fcfs = simulate Sched.Backfill.fcfs trace in
  let lxf = simulate Sched.Backfill.lxf trace in
  Alcotest.(check bool) "LXF improves avg slowdown" true
    (lxf.Sim.Run.aggregate.Metrics.Aggregate.avg_bounded_slowdown
    < fcfs.Sim.Run.aggregate.Metrics.Aggregate.avg_bounded_slowdown);
  Alcotest.(check bool) "FCFS has no worse max wait" true
    (fcfs.Sim.Run.aggregate.Metrics.Aggregate.max_wait
    <= lxf.Sim.Run.aggregate.Metrics.Aggregate.max_wait +. 1.0)

let test_fcfs_zero_excess_by_construction () =
  let trace = month "10/03" in
  let fcfs = simulate Sched.Backfill.fcfs trace in
  let threshold = fcfs.Sim.Run.aggregate.Metrics.Aggregate.max_wait in
  let excess = Sim.Run.excess fcfs ~threshold in
  Alcotest.(check (float 1e-6)) "total excess vs own max" 0.0
    excess.Metrics.Excess.total;
  Alcotest.(check int) "no unfortunate jobs" 0 excess.Metrics.Excess.count

let test_dds_balances_both_goals () =
  (* The headline claim on a scaled month: DDS/lxf/dynB's max wait is
     close to FCFS-backfill's (not LXF's blow-up) while its average
     slowdown is much closer to LXF-backfill's than FCFS's. *)
  let trace =
    Workload.Trace.scale_load (month "7/03") ~capacity:128 ~target:0.95
  in
  let fcfs = simulate Sched.Backfill.fcfs trace in
  let lxf = simulate Sched.Backfill.lxf trace in
  let search = simulate (dds 1000) trace in
  let max_wait r = r.Sim.Run.aggregate.Metrics.Aggregate.max_wait in
  let slowdown r = r.Sim.Run.aggregate.Metrics.Aggregate.avg_bounded_slowdown in
  Alcotest.(check bool)
    (Printf.sprintf "max wait %.1fh within 1.3x of FCFS %.1fh"
       (max_wait search /. 3600.) (max_wait fcfs /. 3600.))
    true
    (max_wait search <= 1.3 *. max_wait fcfs);
  Alcotest.(check bool)
    (Printf.sprintf "avg slowdown %.1f beats FCFS %.1f" (slowdown search)
       (slowdown fcfs))
    true
    (slowdown search < slowdown fcfs);
  ignore lxf

let test_dds_excess_below_lxf () =
  let trace =
    Workload.Trace.scale_load (month "9/03") ~capacity:128 ~target:0.95
  in
  let fcfs = simulate Sched.Backfill.fcfs trace in
  let lxf = simulate Sched.Backfill.lxf trace in
  let search = simulate (dds 1000) trace in
  let threshold = fcfs.Sim.Run.aggregate.Metrics.Aggregate.max_wait in
  let total r = (Sim.Run.excess r ~threshold).Metrics.Excess.total in
  Alcotest.(check bool) "DDS total excess <= LXF total excess" true
    (total search <= total lxf +. 1.0)

let test_sjf_starves () =
  (* SJF-backfill's known pathology: a clearly worse maximum wait than
     FCFS-backfill under load. *)
  let trace =
    Workload.Trace.scale_load (month "10/03") ~capacity:128 ~target:0.95
  in
  let fcfs = simulate Sched.Backfill.fcfs trace in
  let sjf = simulate Sched.Backfill.sjf trace in
  Alcotest.(check bool) "SJF max wait worse" true
    (sjf.Sim.Run.aggregate.Metrics.Aggregate.max_wait
    > fcfs.Sim.Run.aggregate.Metrics.Aggregate.max_wait)

let test_budget_improves_objective_monotonically_enough () =
  (* a larger node budget cannot hurt the *per-decision* objective;
     end-to-end it should keep total excess no worse within noise.
     We check the weaker, robust property: the L=2K run's total excess
     w.r.t. the FCFS max is within 25% + 2h of the L=200 run's. *)
  let trace =
    Workload.Trace.scale_load (month "1/04") ~capacity:128 ~target:0.95
  in
  let fcfs = simulate Sched.Backfill.fcfs trace in
  let threshold = fcfs.Sim.Run.aggregate.Metrics.Aggregate.max_wait in
  let small = simulate (dds 200) trace in
  let large = simulate (dds 2000) trace in
  let total r = (Sim.Run.excess r ~threshold).Metrics.Excess.total in
  Alcotest.(check bool)
    (Printf.sprintf "L=2K excess %.1fh vs L=200 %.1fh"
       (total large /. 3600.) (total small /. 3600.))
    true
    (total large <= (1.25 *. total small) +. 7200.0)

let test_overhead_state_builder () =
  let state = Experiments.Overhead.synthetic_state ~seed:1 () in
  Alcotest.(check int) "30 waiting jobs" 30 (Core.Search_state.job_count state);
  let result = Core.Search.run Core.Search.Dds ~budget:1000 state in
  Alcotest.(check bool) "search runs within budget" true
    (result.Core.Search.nodes_visited <= 1000)

let test_registry_complete () =
  (* the paper's experiments come first, in this order *)
  let ids = List.map (fun e -> e.Experiments.Registry.id) Experiments.Registry.all in
  Alcotest.(check (list string)) "paper experiments first"
    [ "fig1"; "table3+4"; "fig2"; "fig3"; "fig4"; "fig5"; "fig6"; "fig7";
      "fig8"; "overhead" ]
    (List.filteri (fun i _ -> i < 10) ids);
  Alcotest.(check bool) "find works" true
    (Experiments.Registry.find "fig4" <> None);
  Alcotest.(check bool) "unknown id" true
    (Experiments.Registry.find "nope" = None)

let test_fig1_runs () =
  (* fig1 is pure combinatorics: run it into a buffer and check shape *)
  let buffer = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buffer in
  (match Experiments.Registry.find "fig1" with
  | Some e -> e.Experiments.Registry.run fmt
  | None -> Alcotest.fail "fig1 missing");
  Format.pp_print_flush fmt ();
  let out = Buffer.contents buffer in
  Alcotest.(check bool) "mentions LDS iteration 1" true
    (Helpers.contains out "LDS iteration 1 (6 paths)");
  Alcotest.(check bool) "mentions DDS iteration 2" true
    (Helpers.contains out "DDS iteration 2 (8 paths)");
  Alcotest.(check bool) "prints the 4-job path count" true
    (Helpers.contains out "24")

let suite =
  [
    Alcotest.test_case "backfill trade-off (Sec 3.2)" `Slow
      test_backfill_tradeoff;
    Alcotest.test_case "FCFS zero excess by construction" `Slow
      test_fcfs_zero_excess_by_construction;
    Alcotest.test_case "DDS balances both goals" `Slow
      test_dds_balances_both_goals;
    Alcotest.test_case "DDS excess <= LXF" `Slow test_dds_excess_below_lxf;
    Alcotest.test_case "SJF starves long jobs" `Slow test_sjf_starves;
    Alcotest.test_case "budget scaling sane" `Slow
      test_budget_improves_objective_monotonically_enough;
    Alcotest.test_case "overhead state builder" `Quick
      test_overhead_state_builder;
    Alcotest.test_case "experiment registry" `Quick test_registry_complete;
    Alcotest.test_case "fig1 output shape" `Quick test_fig1_runs;
  ]
