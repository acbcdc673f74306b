let table fmt ~title ~months ~policies ~value =
  (* warm the run cache for the whole grid through the domain pool;
     the formatting loop below then only does cache lookups *)
  Common.prefetch_runs ~months policies;
  Format.fprintf fmt "@.-- %s --@." title;
  Format.fprintf fmt "%-26s" "policy";
  List.iter
    (fun m -> Format.fprintf fmt " %8s" m.Workload.Month_profile.label)
    months;
  Format.pp_print_newline fmt ();
  List.iter
    (fun (name, runner) ->
      Format.fprintf fmt "%-26s" name;
      List.iter
        (fun m -> Format.fprintf fmt " %8.2f" (value m (runner m)))
        months;
      Format.pp_print_newline fmt ())
    policies

let avg_wait_hours _ (run : Sim.Run.t) =
  Metrics.Aggregate.avg_wait_hours run.Sim.Run.aggregate

let max_wait_hours _ (run : Sim.Run.t) =
  Metrics.Aggregate.max_wait_hours run.Sim.Run.aggregate

let avg_bounded_slowdown _ (run : Sim.Run.t) =
  run.Sim.Run.aggregate.Metrics.Aggregate.avg_bounded_slowdown

let avg_queue_length _ (run : Sim.Run.t) =
  run.Sim.Run.aggregate.Metrics.Aggregate.avg_queue_length
