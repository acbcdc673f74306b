(** Event-driven simulation engine.

    Replays a trace against a scheduling policy: scheduling decisions
    happen exactly at job arrivals and departures (as in the paper);
    all events at one instant are drained before the policy is
    consulted once.  A job runs for its actual runtime T, which never
    exceeds its requested limit R ({!Workload.Job.t}), and holds its
    nodes for the whole time.

    The engine validates every start the policy requests (the job must
    be waiting and fit the free nodes) and raises [Invalid_argument] on
    a violation, so a buggy policy cannot silently oversubscribe the
    machine.

    Event order.  Arrivals are read through a cursor over the
    submit-ordered {!Workload.Trace.jobs}; departures are read from
    the running set's finish order ({!Cluster.Running_set.next_finish},
    {!Cluster.Running_set.pop_finished}), which holds nothing but the
    running jobs.  One instant is one float: the next decision point
    [now] is the earliest pending event time, and it applies exactly
    the events whose time equals [now] (arrivals first, equal submits
    in id order, then departures, equal finishes in start order)
    before it consults the policy once.  An event even one ulp later
    is its own decision, so every start is at or after its job's
    submit, exactly.  {!Schedcheck.Validator} groups events by the
    same equality. *)

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
  outcomes : Metrics.Outcome.t list;
      (** one per job, in start order (starts non-decreasing); a
          backfilled job comes before the earlier-submitted jobs it
          overtook.  A job's running-set entry takes its [finish] from
          {!Metrics.Outcome.finish}, so it departs at its outcome's end. *)
  queue_samples : queue_sample list;
      (** waiting-queue length after each decision, time order *)
  decisions : int;
}

(** What one decision point did, reported to the [observe] hook after
    the decision's starts took effect.  Decisions happen exactly at
    arrivals and departures, so every completion instant is reported
    too. *)
type decision = {
  now : float;  (** simulated decision time, seconds *)
  seen : int;  (** waiting-queue length the policy saw *)
  started : Workload.Job.t list;  (** jobs started here, in start order *)
  queue : int;  (** waiting jobs after the starts *)
  demand : int;  (** nodes demanded by those waiting jobs (backlog) *)
  max_wait : float;  (** longest current wait among them, seconds *)
  busy : int;  (** busy nodes after the starts *)
  running : int;  (** running jobs after the starts *)
  probe : Simcore.Telemetry.Probe.t option;
      (** the policy's search-effort record for this decision ([None]
          for policies that do not search); valid only during the
          call *)
}

val run :
  ?machine:Cluster.Machine.t ->
  ?observe:(decision -> unit) ->
  r_star:r_star ->
  policy:Sched.Policy.t ->
  Workload.Trace.t ->
  result
(** Simulate the whole trace to completion (default machine:
    {!Cluster.Machine.titan}).

    [observe], when given, is called once per decision point, after
    the decision's starts took effect.  Every sink — the decision log
    ({!Decision_log.observe}), the run-health series
    ({!Series.observe}), the metric registry ({!Run_metrics.observer})
    — is such an observer; compose several with a closure.  The pass
    over the queue that computes [demand] and [max_wait] runs only
    when [observe] is set, so an unobserved run pays nothing for it.
    Schedule validation is {!Run.simulate}'s [?validate].
    @raise Invalid_argument if some job is wider than the machine or if
    the policy requests an invalid start. *)

val windowed_queue_average :
  queue_sample list -> from_:float -> upto:float -> float
(** Time-weighted average queue length over [[from_, upto]]: each
    sample's length holds until the next sample; the last sample at or
    before [from_] sets the value at [from_] (0 before any sample), and
    samples after [upto] do not count.  0.0 when [upto <= from_]. *)
