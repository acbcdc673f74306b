let load = Common.Rho 0.9

let variant ~algorithm ~heuristic name =
  let config =
    Core.Search_policy.v ~algorithm ~heuristic ~bound:Core.Bound.dynamic
      ~budget:2000 ()
  in
  ( name,
    fun m ->
      Common.simulate ~policy:(Common.search_policy config)
        ~r_star:Sim.Engine.Actual m load )

let run fmt =
  Common.section fmt ~id:"fig7"
    "Search algorithms and branching heuristics (rho=0.9; R*=T; L=2K)";
  let months = Common.months () in
  let policies =
    [
      variant ~algorithm:Core.Search.Dds ~heuristic:Sched.Priority.fcfs
        "DDS/fcfs/dynB";
      variant ~algorithm:Core.Search.Dds ~heuristic:Sched.Priority.lxf
        "DDS/lxf/dynB";
      variant ~algorithm:Core.Search.Lds ~heuristic:Sched.Priority.lxf
        "LDS/lxf/dynB";
      (* extensions beyond the paper's comparison: the original
         (revisiting) LDS and plain chronological DFS *)
      variant ~algorithm:Core.Search.Lds_original ~heuristic:Sched.Priority.lxf
        "LDS0/lxf/dynB (ext)";
      variant ~algorithm:Core.Search.Dfs ~heuristic:Sched.Priority.lxf
        "DFS/lxf/dynB (ext)";
    ]
  in
  Panels.table fmt ~title:"(a) avg bounded slowdown" ~months ~policies
    ~value:Panels.avg_bounded_slowdown;
  Panels.table fmt
    ~title:"(b) total excessive wait w.r.t. FCFS-BF max (hours)" ~months
    ~policies
    ~value:(fun m run ->
      let threshold =
        Common.fcfs_max_threshold ~r_star:Sim.Engine.Actual m load
      in
      Metrics.Excess.total_hours (Sim.Run.excess run ~threshold))
