let policies ~load ~r_star ~budget =
  let run policy m = Common.simulate ~policy ~r_star m load in
  [
    ("FCFS-backfill", run (fun () -> Sched.Backfill.fcfs));
    ("LXF-backfill", run (fun () -> Sched.Backfill.lxf));
    ( "DDS/lxf/dynB",
      fun m ->
        run
          (Common.search_policy
             (Core.Search_policy.dds_lxf_dynb ~budget:(budget m)))
          m );
  ]

let run fmt =
  Common.section fmt ~id:"fig3"
    "Performance comparison under original load (R*=T; L=1K)";
  let months = Common.months () in
  let policies =
    policies ~load:Common.Original ~r_star:Sim.Engine.Actual
      ~budget:(fun _ -> 1000)
  in
  Panels.table fmt ~title:"(a) avg wait (hours)" ~months ~policies
    ~value:Panels.avg_wait_hours;
  Panels.table fmt ~title:"(b) max wait (hours)" ~months ~policies
    ~value:Panels.max_wait_hours;
  Panels.table fmt ~title:"(c) avg bounded slowdown" ~months ~policies
    ~value:Panels.avg_bounded_slowdown
