(** Event-driven simulation engine.

    Replays a trace against a scheduling policy: scheduling decisions
    happen exactly at job arrivals and departures (as in the paper);
    all events at one instant are drained before the policy is
    consulted once.  Jobs run for [min(T, R)] — the system kills a job
    at its requested limit — and hold their nodes for the whole time.

    The engine validates every start the policy requests (the job must
    be waiting and fit the free nodes) and raises [Invalid_argument] on
    a violation, so a buggy policy cannot silently oversubscribe the
    machine. *)

type r_star =
  | Actual  (** the paper's R* = T: perfect information *)
  | Requested  (** the paper's R* = R: raw user estimates *)
  | Predicted
      (** the paper's Section 7 future-work idea: correct the user
          estimate with an on-line prediction.  The engine tracks the
          mean actual/requested ratio of completed jobs and scales each
          estimate by it (clamped to [1 min, R]).  Predictions may
          undershoot; schedulers must tolerate jobs outliving their
          estimated completion (the availability profile does). *)

val r_star_name : r_star -> string

type queue_sample = { time : float; length : int }

type result = {
  outcomes : Metrics.Outcome.t list;  (** one per job, submit order *)
  queue_samples : queue_sample list;
      (** waiting-queue length after each decision, time order *)
  decisions : int;
  horizon : float;  (** time of the last event *)
  validation : Schedcheck.Report.t option;
      (** present iff [?validate] was given to {!run} *)
}

val run :
  ?machine:Cluster.Machine.t ->
  ?log:Decision_log.t ->
  ?series:Series.t ->
  ?metrics:Simcore.Metrics.t ->
  ?validate:Schedcheck.Validator.expectation ->
  r_star:r_star ->
  policy:Sched.Policy.t ->
  Workload.Trace.t ->
  result
(** Simulate the whole trace to completion (default machine:
    {!Cluster.Machine.titan}).  [log], when given, receives one
    decision event per decision point: the simulated time, the queue
    length the policy saw, the number of jobs it started, and the
    policy's search-effort probe snapshot.

    [series], when given, is fed one run-health observation per
    decision point, after the decision's starts took effect (decisions
    happen exactly at arrivals and departures, so completions are
    sampled too), plus one {!Series.note_start} per started job.

    [metrics], when given, must be a fresh registry: the engine
    registers its run-health instruments on it (decision/start/finish
    counters, queue/busy/backlog gauges, wait and queue-depth
    histograms, names prefixed [schedsim_]) and records into them as
    the run progresses.  When the policy carries a probe it also
    registers, after those, the search-effort instruments
    [schedsim_search_{decisions,nodes,leaves,exhausted,improvements}]
    and the [schedsim_search_nodes_per_decision] histogram, fed from
    the probe after every decision that searched ([budget > 0]).  Both
    hooks are entirely off the simulation path when unset.

    [validate], when given, runs {!Schedcheck.Validator.validate} over
    the finished schedule and stores the report in
    [result.validation]; violations are reported as data, never
    raised.  Validation is entirely off the simulation path — with
    [?validate] unset no validator code runs.  Under [Predicted]
    runtimes an [Easy_backfill] expectation is downgraded to [Generic]
    (the stateful estimator cannot be replayed post-hoc).
    @raise Invalid_argument if some job is wider than the machine or if
    the policy requests an invalid start. *)

val windowed_queue_average :
  queue_sample list -> from_:float -> upto:float -> float
(** Time-weighted average queue length within a window. *)
