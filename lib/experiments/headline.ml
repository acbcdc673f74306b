(* (label, fresh policy instance) — search policies carry per-run
   mutable state, so each simulation forces its own. *)
let policies =
  [
    ("FCFS-backfill", fun () -> Sched.Backfill.fcfs);
    ("LXF-backfill", fun () -> Sched.Backfill.lxf);
    ( "DDS/lxf/dynB",
      Common.search_policy (Core.Search_policy.dds_lxf_dynb ~budget:1000) );
  ]

let simulate scenario (_, policy) =
  Common.simulate_scenario ~policy ~r_star:Sim.Engine.Actual scenario

let prefetch scenarios =
  Common.prefetch
    (List.concat_map
       (fun s -> List.map (fun p () -> ignore (simulate s p)) policies)
       scenarios)

let runs s = List.map (fun ((name, _) as p) -> (name, simulate s p)) policies

let pp_table fmt runs =
  Format.fprintf fmt "%-16s %9s %9s %9s@." "policy" "avgW(h)" "maxW(h)"
    "avgBsld";
  List.iter
    (fun (name, run) ->
      let a = run.Sim.Run.aggregate in
      Format.fprintf fmt "%-16s %9.2f %9.2f %9.1f@." name
        (Metrics.Aggregate.avg_wait_hours a)
        (Metrics.Aggregate.max_wait_hours a)
        a.Metrics.Aggregate.avg_bounded_slowdown)
    runs

let relations runs =
  let agg name = (List.assoc name runs).Sim.Run.aggregate in
  let fcfs = agg "FCFS-backfill"
  and lxf = agg "LXF-backfill"
  and dds = agg "DDS/lxf/dynB" in
  let open Metrics.Aggregate in
  [
    ( "LXF slowdown < FCFS slowdown",
      lxf.avg_bounded_slowdown < fcfs.avg_bounded_slowdown );
    ( "DDS max wait <= 1.15 x FCFS max wait",
      dds.max_wait <= 1.15 *. fcfs.max_wait );
    ( "DDS slowdown < FCFS slowdown",
      dds.avg_bounded_slowdown < fcfs.avg_bounded_slowdown );
  ]
