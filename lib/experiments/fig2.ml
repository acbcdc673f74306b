let policy_for omega =
  let config =
    Core.Search_policy.v ~algorithm:Core.Search.Dds
      ~heuristic:Sched.Priority.lxf
      ~bound:(Core.Bound.fixed_hours omega)
      ~budget:1000 ()
  in
  ( Printf.sprintf "DDS/lxf w=%gh" omega,
    fun m ->
      Common.simulate ~policy:(Common.search_policy config)
        ~r_star:Sim.Engine.Actual m Common.Original )

let run fmt =
  Common.section fmt ~id:"fig2"
    "Sensitivity to fixed target bound (DDS/lxf; R*=T; original load; L=1K)";
  let months = Common.months () in
  let policies = List.map policy_for [ 50.0; 100.0; 300.0 ] in
  Panels.table fmt ~title:"(a) max wait (hours)" ~months ~policies
    ~value:Panels.max_wait_hours;
  Panels.table fmt ~title:"(b) avg bounded slowdown" ~months ~policies
    ~value:Panels.avg_bounded_slowdown;
  Panels.table fmt ~title:"(extra) avg wait (hours)" ~months ~policies
    ~value:Panels.avg_wait_hours
