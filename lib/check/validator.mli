(** Schedule validator: machine-level invariants by replay.

    Given a trace and the per-job outcomes a simulation produced, the
    validator replays the schedule and checks that it is {e legal} —
    independent of the policy that produced it — and, for the EASY
    backfill family, that it is the schedule the reference
    implementation would have produced (a differential replay).

    Invariant inventory (the [invariant] field of each violation):

    Generic (every expectation):
    - ["job-completeness"]: every trace job has exactly one outcome,
      and no outcome is for an unknown job;
    - ["job-fits-machine"]: no job is wider than the machine;
    - ["start-after-submit"]: no job starts before its arrival;
    - ["capacity"]: instantaneous node usage never exceeds machine
      capacity (releases at an instant free nodes for starts at the
      same instant, as the engine applies an instant's events before
      it decides);
    - ["start-at-decision-point"]: every start happens at a scheduling
      decision point (a job arrival or departure) — the paper's
      decision model.

    Non-preemption holds by construction: an outcome's only end is
    {!Metrics.Outcome.finish}, at which the engine releases its nodes.

    An instant is one float: events are grouped, and submit, start and
    finish times compared, by exact equality, as {!Sim.Engine} does.
    One walk over the instants at which anything happens (a merge of
    the submit-ordered trace, the outcomes by finish and the outcomes
    by start) checks [capacity] and [start-at-decision-point], and the
    EASY replay below reuses it.

    [Easy_backfill] additionally replays {!Sched.Backfill.plan} at
    every decision point with a reconstructed context and checks:
    - ["backfill-differential"]: the jobs started at each decision are
      exactly the reference plan's start-now set, {e in the same
      order} — which subsumes FIFO ordering of equal-priority ties
      under fcfs;
    - ["easy-reservation-monotone"] (fcfs priority only): a reserved
      job's promised start never slips later across decisions (sound
      because fcfs order is stable and the estimates the profile is
      built from never under-estimate); the running set reports no
      release sooner than {!Cluster.Running_set.overdue_grace} after
      [now], so a promise inside that grace is kept at its end;
    - ["easy-reservation-bound"] (fcfs priority only): no reserved job
      starts later than its promised start — the one-reservation EASY
      guarantee Dutot & Mounié's bi-criteria analysis relies on;
    - ["replay-failed"]: the differential replay itself raised (a
      schedule so malformed the running set rejects it, or a departure
      the running set pops that is not the schedule's next finish) —
      reported as a violation rather than escaping as an exception.

    The replay runs only when every generic invariant passed: an
    illegal schedule cannot be reconstructed faithfully, and the
    generic violations already locate the fault.

    The replay reconstructs contexts exactly as {!Sim.Engine} builds
    them (same event order, same instants), so on a faithful run the
    differential comparison is bit-exact.  The
    stateful [R* = pred] estimator cannot be replayed after the fact;
    callers must downgrade to [Generic] for predicted runtimes (the
    engine wiring does). *)

type expectation =
  | Generic  (** machine-level invariants only *)
  | Easy_backfill of { reservations : int; priority : Sched.Priority.t }
      (** also replay the EASY backfill engine differentially *)

val expectation_of_policy : string -> expectation
(** Derive the expectation from a policy name: ["FCFS-backfill"],
    ["LXF-backfill"], ["SJF-backfill"] (optionally with a ["/res=K"]
    suffix) map to [Easy_backfill]; everything else — search policies,
    the conservative/selective/multi-queue variants, run-now, unknown
    names — maps to [Generic]. *)

val validate :
  ?machine:Cluster.Machine.t ->
  ?expect:expectation ->
  ?r_star:(Workload.Job.t -> float) ->
  subject:string ->
  trace:Workload.Trace.t ->
  outcomes:Metrics.Outcome.t list ->
  unit ->
  Report.t
(** [validate ~trace ~outcomes ()] checks the schedule described by
    [outcomes] (every job of the trace, chronological start order or
    any stable order — the validator sorts stably by start time)
    against the invariants above.  [machine] defaults to
    {!Cluster.Machine.titan}; [expect] to [Generic]; [r_star] — the
    scheduler-visible runtime used to rebuild availability profiles
    during differential replay — to actual runtimes T (the engine's
    [R* = T]). *)
