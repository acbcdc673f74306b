type t = {
  policy_name : string;
  measured : Metrics.Outcome.t list;
  aggregate : Metrics.Aggregate.t;
  class_matrix : Metrics.Class_matrix.t;
  decisions : int;
  wall_clock : float;
  utilization : float;
  queue_samples : Engine.queue_sample list;
  validation : Schedcheck.Report.t option;
}

(* Busy node-seconds inside [from_, upto), over machine capacity. *)
let utilization_of ~machine ~from_ ~upto outcomes =
  let window = upto -. from_ in
  if window <= 0.0 then 0.0
  else begin
    let busy =
      List.fold_left
        (fun acc (o : Metrics.Outcome.t) ->
          let overlap =
            Float.min upto (Metrics.Outcome.finish o) -. Float.max from_ o.start
          in
          if overlap > 0.0 then
            acc +. (overlap *. float_of_int o.job.Workload.Job.nodes)
          else acc)
        0.0 outcomes
    in
    busy /. (float_of_int machine.Cluster.Machine.nodes *. window)
  end

(* The Predicted estimator is stateful (it learns as jobs complete), so
   its profiles cannot be rebuilt after the fact: keep the machine-level
   invariants, drop the differential. *)
let validate_schedule ~machine ~expect ~r_star ~policy ~trace outcomes =
  let expect =
    if r_star = Engine.Predicted then Schedcheck.Validator.Generic
    else expect
  in
  let r_star =
    match r_star with
    | Engine.Requested -> Some (fun (j : Workload.Job.t) -> j.requested)
    | Engine.Actual | Engine.Predicted -> None
  in
  Schedcheck.Validator.validate ~machine ~expect ?r_star
    ~subject:policy.Sched.Policy.name ~trace ~outcomes ()

let simulate ?(machine = Cluster.Machine.titan) ?observe ?validate ~r_star
    ~policy trace =
  let t0 = Simcore.Clock.monotonic_s () in
  let result = Engine.run ~machine ?observe ~r_star ~policy trace in
  let wall_clock = Simcore.Clock.monotonic_s () -. t0 in
  let measured =
    List.filter
      (fun (o : Metrics.Outcome.t) -> Workload.Trace.in_window trace o.job)
      result.Engine.outcomes
  in
  let avg_queue_length =
    Engine.windowed_queue_average result.Engine.queue_samples
      ~from_:(Workload.Trace.measure_start trace)
      ~upto:(Workload.Trace.measure_end trace)
  in
  {
    policy_name = policy.Sched.Policy.name;
    measured;
    aggregate = Metrics.Aggregate.compute ~avg_queue_length measured;
    class_matrix = Metrics.Class_matrix.compute measured;
    decisions = result.Engine.decisions;
    wall_clock;
    queue_samples = result.Engine.queue_samples;
    validation =
      Option.map
        (fun expect ->
          validate_schedule ~machine ~expect ~r_star ~policy ~trace
            result.Engine.outcomes)
        validate;
    utilization =
      utilization_of ~machine
        ~from_:(Workload.Trace.measure_start trace)
        ~upto:(Workload.Trace.measure_end trace)
        result.Engine.outcomes;
  }

let excess t ~threshold = Metrics.Excess.compute ~threshold t.measured
