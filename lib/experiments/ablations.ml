let load = Common.Rho 0.9
let r_star = Sim.Engine.Actual

let runner name policy = (name, fun m -> Common.simulate ~policy ~r_star m load)
let simple name policy = runner name (fun () -> policy)
let search name config = runner name (Common.search_policy config)

let three_panels fmt ~months ~policies =
  Panels.table fmt ~title:"avg wait (hours)" ~months ~policies
    ~value:Panels.avg_wait_hours;
  Panels.table fmt ~title:"max wait (hours)" ~months ~policies
    ~value:Panels.max_wait_hours;
  Panels.table fmt ~title:"avg bounded slowdown" ~months ~policies
    ~value:Panels.avg_bounded_slowdown

let extra_baselines fmt =
  Common.section fmt ~id:"ablation-baselines"
    "Related-work baselines (rho=0.9; R*=T)";
  let months = Common.months () in
  let policies =
    [
      simple "FCFS-backfill" Sched.Backfill.fcfs;
      simple "LXF-backfill" Sched.Backfill.lxf;
      simple "SJF-backfill" Sched.Backfill.sjf;
      simple "selective-backfill" (Sched.Selective.policy ());
      simple "conservative-fcfs" Sched.Conservative.policy;
      simple "multi-queue-backfill" Sched.Multi_queue.policy;
      simple "run-now (greedy)" Sched.Backfill.run_now;
      search "DDS/lxf/dynB(1K)" (Core.Search_policy.dds_lxf_dynb ~budget:1000);
    ]
  in
  three_panels fmt ~months ~policies;
  Panels.table fmt ~title:"utilization (% of node-time)" ~months ~policies
    ~value:(fun _ run -> 100.0 *. run.Sim.Run.utilization)

let reservations fmt =
  Common.section fmt ~id:"ablation-reservations"
    "FCFS-backfill reservation count (rho=0.9; R*=T)";
  let months = Common.months () in
  let policies =
    List.map
      (fun k ->
        simple
          (Printf.sprintf "FCFS-backfill res=%d" k)
          (Sched.Backfill.policy ~reservations:k Sched.Priority.fcfs))
      [ 1; 2; 4 ]
  in
  three_panels fmt ~months ~policies

let pruning fmt =
  Common.section fmt ~id:"ablation-bnb"
    "Branch-and-bound pruning in DDS/lxf/dynB (rho=0.9; R*=T; L=1K)";
  let months = Common.months () in
  let base = Core.Search_policy.dds_lxf_dynb ~budget:1000 in
  let policies =
    [
      search "DDS/lxf/dynB" base;
      search "DDS/lxf/dynB+bnb" { base with Core.Search_policy.prune = true };
    ]
  in
  three_panels fmt ~months ~policies

let hybrid_local_search fmt =
  Common.section fmt ~id:"ablation-localsearch"
    "Local-search post-pass on DDS/lxf/dynB (rho=0.9; R*=T; L=1K)";
  let months = Common.months () in
  let base = Core.Search_policy.dds_lxf_dynb ~budget:1000 in
  let policies =
    [
      search "DDS/lxf/dynB" base;
      search "DDS/lxf/dynB+ls"
        { base with Core.Search_policy.local_search = true };
    ]
  in
  three_panels fmt ~months ~policies

let prediction fmt =
  Common.section fmt ~id:"ablation-prediction"
    "On-line runtime prediction (Sec 7 future work): DDS/lxf/dynB, rho=0.9, L=4K";
  let months = Common.months () in
  let config = Core.Search_policy.dds_lxf_dynb ~budget:4000 in
  let with_estimator label r_star =
    ( label,
      fun m ->
        Common.simulate ~policy:(Common.search_policy config) ~r_star m load )
  in
  let policies =
    [
      with_estimator "DDS (R*=T, oracle)" Sim.Engine.Actual;
      with_estimator "DDS (R*=R, user estimates)" Sim.Engine.Requested;
      with_estimator "DDS (R*=pred, corrected)" Sim.Engine.Predicted;
    ]
  in
  three_panels fmt ~months ~policies

let fairshare fmt =
  Common.section fmt ~id:"ablation-fairshare"
    "Fairshare thresholds (Sec 7 future work): DDS/lxf/dynB, rho=0.9, L=1K";
  let months = Common.months () in
  let base = Core.Search_policy.dds_lxf_dynb ~budget:1000 in
  let fair = { base with Core.Search_policy.fairshare = Some 2.0 } in
  let policies = [ search "DDS/lxf/dynB" base; search "DDS/lxf/dynB+fair" fair ] in
  three_panels fmt ~months ~policies;
  Panels.table fmt ~title:"Jain fairness over per-user slowdowns" ~months
    ~policies
    ~value:(fun _ run ->
      Metrics.User_stats.jain_index
        (Metrics.User_stats.compute run.Sim.Run.measured));
  (* per-user detail for one month *)
  match months with
  | [] -> ()
  | m :: _ ->
      List.iter
        (fun (label, runner) ->
          let run = runner m in
          Format.fprintf fmt "@.-- %s, month %s: heaviest users --@.%a" label
            m.Workload.Month_profile.label
            (Metrics.User_stats.pp_top ~n:5)
            (Metrics.User_stats.compute run.Sim.Run.measured))
        policies

let objective_goal fmt =
  Common.section fmt ~id:"ablation-goal"
    "Declared second-level goal: bounded slowdown (paper) vs avg wait (rho=0.9; L=1K)";
  let months = Common.months () in
  let base = Core.Search_policy.dds_lxf_dynb ~budget:1000 in
  let wait_goal = { base with Core.Search_policy.goal = Core.Objective.Avg_wait } in
  let policies =
    [ search "DDS/lxf/dynB (bsld)" base;
      search "DDS/lxf/dynB (avgW)" wait_goal ]
  in
  three_panels fmt ~months ~policies

let runtime_bound fmt =
  Common.section fmt ~id:"ablation-rtbound"
    "Runtime-scaled target bound vs dynB (rho=0.9; R*=T; L=1K)";
  let months = Common.months () in
  let rt_bound =
    Core.Bound.Runtime_scaled { floor = Simcore.Units.hour; factor = 2.0 }
  in
  let policies =
    [
      search "DDS/lxf/dynB" (Core.Search_policy.dds_lxf_dynb ~budget:1000);
      search "DDS/lxf/rtB"
        (Core.Search_policy.v ~algorithm:Core.Search.Dds
           ~heuristic:Sched.Priority.lxf ~bound:rt_bound ~budget:1000 ());
    ]
  in
  three_panels fmt ~months ~policies
