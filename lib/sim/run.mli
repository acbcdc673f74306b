(** One policy x one trace -> the paper's reported measures.

    Wraps {!Engine.run}, optionally validates the schedule, restricts
    statistics to jobs submitted in the trace's measurement window (the
    month, excluding warm-up and cool-down) and packages the aggregate
    measures, the per-class matrix and the raw outcomes for
    excessive-wait post-processing. *)

type t = {
  policy_name : string;
  measured : Metrics.Outcome.t list;  (** outcomes of in-window jobs *)
  aggregate : Metrics.Aggregate.t;  (** over [measured]; queue length
                                        averaged over the window *)
  class_matrix : Metrics.Class_matrix.t;
  decisions : int;
  wall_clock : float;  (** host seconds spent simulating *)
  utilization : float;
      (** fraction of node-time actually used within the measurement
          window (all jobs running there, not only measured ones) *)
  queue_samples : Engine.queue_sample list;
      (** waiting-queue length after each decision (whole simulation),
          for backlog-dynamics analyses *)
  validation : Schedcheck.Report.t option;
      (** schedule-validation report, when the run was validated
          ([simulate ?validate]); rides along in the run caches so the
          bench harness can aggregate reports *)
}

val simulate :
  ?machine:Cluster.Machine.t ->
  ?observe:(Engine.decision -> unit) ->
  ?validate:Schedcheck.Validator.expectation ->
  r_star:Engine.r_star ->
  policy:Sched.Policy.t ->
  Workload.Trace.t ->
  t
(** Run {!Engine.run} ([observe] is passed through: the caller owns
    the sinks it feeds) and package the measures.

    [validate], when given, runs {!Schedcheck.Validator.validate} over
    the finished schedule and stores the report in [validation];
    violations are reported as data, never raised.  With [?validate]
    unset no validator code runs.  Under [Predicted] runtimes an
    [Easy_backfill] expectation is downgraded to [Generic] (the
    stateful estimator cannot be replayed post hoc).  [wall_clock]
    covers the simulation only, not the validation. *)

val excess : t -> threshold:float -> Metrics.Excess.t
(** Excessive wait of the measured jobs w.r.t. a threshold. *)
