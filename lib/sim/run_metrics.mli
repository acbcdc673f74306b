(** The run's metric instruments, as an {!Engine.run} observer.

    [observer reg policy] registers the run-health instruments on the
    fresh registry [reg] and returns the observer that records into
    them, one call per decision point.  Names are prefixed
    [schedsim_]; the exposition lists them in registration order:
    - [queue_depth] (histogram of waiting jobs per decision),
      [wait_seconds] (histogram of per-job wait at start),
      [backlog_nodes], [busy_nodes], [queue_jobs] (gauges after the
      last decision), [jobs_completed], [jobs_started], [decisions]
      (counters);
    - then, when [policy] carries a probe, the search-effort counters
      [search_{decisions,nodes,leaves,exhausted,improvements}] and the
      [search_nodes_per_decision] histogram, fed from the probe after
      every decision that searched ([budget > 0]).

    [jobs_completed] is jobs started minus jobs running.  Every
    completion is followed by a decision, so the count is exact at
    every decision and hence at the end of the run. *)

val observer :
  Simcore.Metrics.t -> Sched.Policy.t -> Engine.decision -> unit
