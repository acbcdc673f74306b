(* Fairshare demo (the paper's Section 7 future-work feature).

   Builds a month dominated by one heavy user, then compares plain
   DDS/lxf/dynB against the fairshare variant whose excessive-wait
   thresholds inflate with each user's decayed usage share.  Per-user
   service statistics and Jain's fairness index show the shift.

   Run with:  dune exec examples/fairshare_demo.exe *)

let () =
  let profile = Workload.Month_profile.find "9/03" in
  let config =
    { Workload.Generator.scale = 0.25; seed = 5; users = 6 }
  in
  let base = Workload.Generator.month ~config profile in
  let trace =
    Workload.Trace.scale_load base ~capacity:Workload.Month_profile.capacity
      ~target:0.9
  in
  Format.printf "workload: %s (6 users, Zipf demand)@."
    (Workload.Trace.concat_stats trace);

  let plain = Core.Search_policy.dds_lxf_dynb ~budget:1000 in
  let fair = { plain with Core.Search_policy.fairshare = Some 2.0 } in
  List.iter
    (fun config ->
      let policy = fst (Core.Search_policy.policy config) in
      let run = Sim.Run.simulate ~r_star:Sim.Engine.Actual ~policy trace in
      let stats = Metrics.User_stats.compute run.Sim.Run.measured in
      Format.printf "@.=== %s ===@." run.Sim.Run.policy_name;
      Format.printf "overall: %a@." Metrics.Aggregate.pp run.Sim.Run.aggregate;
      Format.printf "%a" (Metrics.User_stats.pp_top ~n:6) stats)
    [ plain; fair ];
  Format.printf
    "@.With +fair, jobs of users holding a large usage share tolerate@.\
     longer waits before counting as 'excessive', freeing the scheduler@.\
     to serve light users sooner.@."
