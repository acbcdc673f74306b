(* Compare the full policy zoo on one month under high load.

   Demonstrates: workload generation, load scaling (the paper's
   rho = 0.9 construction), running many policies over the same trace,
   and the excessive-wait measures relative to FCFS-backfill.

   Run with:  dune exec examples/policy_comparison.exe [month] *)

let month_label =
  if Array.length Sys.argv > 1 then Sys.argv.(1) else "10/03"

let () =
  let profile = Workload.Month_profile.find month_label in
  let config = { Workload.Generator.default_config with scale = 0.25; seed = 11 } in
  let base = Workload.Generator.month ~config profile in
  let trace =
    Workload.Trace.scale_load base ~capacity:Workload.Month_profile.capacity
      ~target:0.9
  in
  Format.printf "month %s at rho=0.9: %s@." month_label
    (Workload.Trace.concat_stats trace);

  let search config = fst (Core.Search_policy.policy config) in
  let policies =
    [
      Sched.Backfill.fcfs;
      Sched.Backfill.lxf;
      Sched.Backfill.sjf;
      Sched.Selective.policy ();
      Sched.Conservative.policy;
      search (Core.Search_policy.dds_lxf_dynb ~budget:1000);
      search
        (Core.Search_policy.v ~algorithm:Core.Search.Lds
           ~heuristic:Sched.Priority.lxf ~bound:Core.Bound.dynamic
           ~budget:1000 ());
    ]
  in
  let runs =
    List.map
      (fun policy -> Sim.Run.simulate ~r_star:Sim.Engine.Actual ~policy trace)
      policies
  in
  (* threshold: FCFS-backfill's max wait in this month *)
  let fcfs = List.hd runs in
  let threshold = fcfs.Sim.Run.aggregate.Metrics.Aggregate.max_wait in
  Format.printf "@.%-28s %9s %9s %9s %12s %8s@." "policy" "avgW(h)" "maxW(h)"
    "avgBsld" "totExc(h)" "#exc";
  List.iter
    (fun run ->
      let agg = run.Sim.Run.aggregate in
      let excess = Sim.Run.excess run ~threshold in
      Format.printf "%-28s %9.2f %9.2f %9.1f %12.1f %8d@."
        run.Sim.Run.policy_name
        (Metrics.Aggregate.avg_wait_hours agg)
        (Metrics.Aggregate.max_wait_hours agg)
        agg.Metrics.Aggregate.avg_bounded_slowdown
        (Metrics.Excess.total_hours excess)
        excess.Metrics.Excess.count)
    runs;
  Format.printf
    "@.(totExc/#exc = total excessive wait and number of jobs waiting@.\
    \ beyond FCFS-backfill's maximum wait of %.1f hours)@."
    (Simcore.Units.to_hours threshold)
