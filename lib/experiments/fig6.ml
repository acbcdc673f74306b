(* The swept budgets; [REPRO_MAXL] truncates the sweep (e.g.
   REPRO_MAXL=10000 drops the 100K point for quick runs).  Read per
   call, not at module init, so harnesses can re-point REPRO_MAXL
   in-process (perf-json quick config, determinism tests). *)
let budgets () =
  let all = [ 1000; 2000; 4000; 8000; 10_000; 100_000 ] in
  match Sys.getenv_opt "REPRO_MAXL" with
  | None -> all
  | Some s -> (
      match int_of_string_opt s with
      | Some cap -> List.filter (fun b -> b <= cap) all
      | None -> all)

let load = Common.Rho 0.9

let run fmt =
  Common.section fmt ~id:"fig6"
    "January 2004: impact of node budget L on DDS/lxf/dynB (rho=0.9; R*=T)";
  match
    List.find_opt
      (fun m -> String.equal m.Workload.Month_profile.label "1/04")
      (Common.months ())
  with
  | None ->
      Format.fprintf fmt "1/04 not in REPRO_MONTHS selection; skipped.@."
  | Some month ->
      let r_star = Sim.Engine.Actual in
      (* the run set as data: one entry per L plus the two baselines *)
      let plan =
        List.map
          (fun budget ->
            let config = Core.Search_policy.dds_lxf_dynb ~budget in
            ( Printf.sprintf "L=%dK" (budget / 1000),
              fun () ->
                Common.simulate ~policy:(Common.search_policy config)
                  ~r_star month load ))
          (budgets ())
        @ [
            ("FCFS-BF", fun () -> Common.fcfs_run ~r_star month load);
            ( "LXF-BF",
              fun () ->
                Common.simulate ~policy:(fun () -> Sched.Backfill.lxf)
                  ~r_star month load );
          ]
      in
      Common.prefetch
        (List.map (fun (_, force) () -> ignore (force () : Sim.Run.t)) plan);
      let threshold = Common.fcfs_max_threshold ~r_star month load in
      let runs = List.map (fun (label, force) -> (label, force ())) plan in
      Format.fprintf fmt "%-10s %12s %10s %10s %10s@." "L"
        "totExcess(h)" "maxWait(h)" "avgWait(h)" "avgBsld";
      List.iter
        (fun (label, run) ->
          let agg = run.Sim.Run.aggregate in
          let excess = Sim.Run.excess run ~threshold in
          Format.fprintf fmt "%-10s %12.1f %10.2f %10.2f %10.2f@." label
            (Metrics.Excess.total_hours excess)
            (Metrics.Aggregate.max_wait_hours agg)
            (Metrics.Aggregate.avg_wait_hours agg)
            agg.Metrics.Aggregate.avg_bounded_slowdown)
        runs
