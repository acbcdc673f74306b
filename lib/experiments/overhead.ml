open Simcore

let synthetic_state ?(n_waiting = 30) ~seed () =
  let rng = Rng.create ~seed in
  let now = Units.days 100.0 in
  let capacity = Workload.Month_profile.capacity in
  (* ~16 running jobs filling most of the machine, releasing over the
     next twelve hours. *)
  let releases = ref [] in
  let busy = ref 0 in
  let stop = ref false in
  while not !stop do
    let nodes = 1 + Rng.int rng 16 in
    if !busy + nodes > capacity - 4 then stop := true
    else begin
      busy := !busy + nodes;
      let end_time = now +. Dist.log_uniform rng ~lo:Units.minute ~hi:(Units.hours 12.0) in
      releases := (end_time, nodes) :: !releases
    end
  done;
  let profile = Cluster.Profile.of_running ~now ~capacity !releases in
  let jobs =
    Array.init n_waiting (fun id ->
        let nodes = 1 + Rng.int rng 64 in
        let runtime = Dist.log_uniform rng ~lo:Units.minute ~hi:(Units.hours 12.0) in
        let submit = now -. Rng.float rng (Units.hours 5.0) in
        Workload.Job.v ~id ~submit:(Float.max 0.0 submit) ~nodes ~runtime
          ~requested:runtime)
  in
  let r_star (j : Workload.Job.t) = j.runtime in
  let ordered =
    Array.of_list
      (Sched.Priority.order Sched.Priority.lxf ~now ~r_star
         (Array.to_list jobs))
  in
  let durations = Array.map r_star ordered in
  let thresholds =
    Core.Bound.thresholds Core.Bound.dynamic ~now ~r_star ordered
  in
  Core.Search_state.create ~now ~profile ~jobs:ordered ~durations
    ~thresholds ()

let monotonic_s = Simcore.Clock.monotonic_s

let time_one ?n_waiting ~budget ~seed () =
  let state = synthetic_state ?n_waiting ~seed () in
  let t0 = monotonic_s () in
  let result = Core.Search.run Core.Search.Dds ~budget state in
  let elapsed = monotonic_s () -. t0 in
  (elapsed, result.Core.Search.nodes_visited)

(* Total seconds and nodes over [repeats] independently seeded states. *)
let measure ?n_waiting ~repeats ~budget () =
  let total_time = ref 0.0 in
  let total_nodes = ref 0 in
  for i = 1 to repeats do
    let elapsed, nodes = time_one ?n_waiting ~budget ~seed:(1000 + i) () in
    total_time := !total_time +. elapsed;
    total_nodes := !total_nodes + nodes
  done;
  (!total_time, !total_nodes)

let nodes_per_ms ?n_waiting ?(repeats = 20) ~budget () =
  let time, nodes = measure ?n_waiting ~repeats ~budget () in
  float_of_int nodes /. Float.max (1000.0 *. time) 1e-9

let run fmt =
  Common.section fmt ~id:"overhead"
    "Scheduling overhead: DDS/lxf on a 30-job tree (paper: 30-65 ms for 1K-8K nodes)";
  Format.fprintf fmt "%-10s %12s %14s %14s@." "L" "nodes" "time (ms)"
    "nodes/ms";
  List.iter
    (fun budget ->
      let repeats = 20 in
      let time, nodes = measure ~repeats ~budget () in
      let ms = 1000.0 *. time /. float_of_int repeats in
      let nodes = float_of_int nodes /. float_of_int repeats in
      Format.fprintf fmt "%-10d %12.0f %14.3f %14.0f@." budget nodes ms
        (nodes /. Float.max ms 1e-9))
    [ 1000; 2000; 4000; 8000 ]
