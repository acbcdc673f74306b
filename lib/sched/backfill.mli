(** Priority backfill (EASY-style), the paper's baseline family.

    Jobs are considered in priority order.  The first [reservations]
    jobs that cannot start immediately receive a *scheduled start time*
    — a reservation carved into the availability profile at the
    earliest instant enough nodes are free for the job's full estimated
    duration.  Remaining jobs may start now only if they fit the
    profile without delaying any reservation (backfilling).

    The paper's FCFS-backfill and LXF-backfill both use a single
    reservation ("we do not find more reservations to improve the
    performance"); [reservations = max_int] gives conservative
    backfill. *)

type plan = {
  start_now : Workload.Job.t list;  (** jobs to start at the decision time *)
  reserved : (Workload.Job.t * float) list;
      (** jobs given a scheduled start time, with that time *)
}

val pass :
  Cluster.Profile.t ->
  now:float ->
  r_star:(Workload.Job.t -> float) ->
  reserve:(Workload.Job.t -> bool) ->
  Workload.Job.t list ->
  plan
(** [pass profile ~now ~r_star ~reserve jobs] is the backfill family's
    one start loop.  In list order, each job that fits [profile] at
    [now] for its estimated duration ({!Policy.planned_duration}
    [(r_star j)], at least 1 s) starts and
    is carved into the profile there; a job that does not fit is carved
    in at its earliest start, and listed in [reserved], when [reserve
    job] says so, and is otherwise skipped.  [reserve] is asked once
    per blocked job, in list order.  The profile must begin at [now],
    as {!Policy.profile_of} builds it, so no reservation starts before
    [now].

    A decision pays little for jobs that cannot start now.  The pass
    reads the nodes free at [now] once ({!Cluster.Profile.free_now})
    and lowers that count by each start; a job wider than it is blocked
    without a call to [r_star] or a look at the profile, and only a
    job that [reserve] grants gets its duration and its earliest
    start.  The count is never below the true one (a reservation
    lowers only the true one), so it only sorts out jobs that cannot
    fit.

    Every other job gets one start test, against the {e floor} of the
    profile ({!Cluster.Profile.floor}): the running minimum of its free
    nodes, as steps [(t_k, m_k)] with [m_k] strictly decreasing and
    [t_0 = now].  A job of width [w] and duration [d] fits iff no step
    has [m_k < w], or the first such step has [k > 0] and
    [t_k >= now +. d].  That is exact for any [reserve] rule: the first
    step below [w] begins at the first segment with fewer than [w] free
    nodes, so it is the one a scan of [\[now, now + d)] would stop at,
    and the plan is that of a pass scanning the window for every
    job.  The floor is built at
    the first job that passes the width check and again after each
    reservation (a reservation can lower it anywhere); a start over
    [\[now, now + d)] instead lowers the steps that begin before
    [now + d] by its width and drops the later ones no lower than the
    last lowered step.  So a pass scans the profile once, plus once per
    reservation, not once per job; a job's test reads only the steps
    down to its width.  The floor's arrays are reused by every pass on
    a domain, so a decision allocates none; [r_star] and [reserve]
    must not call [pass].

    Every policy here is a queue order plus a [reserve] rule over this
    pass: {!plan} reserves the first [reservations] blocked jobs,
    {!Selective} the starved ones, and {!run_now} none.
    @raise Invalid_argument if [profile] does not begin at [now]. *)

val plan :
  reservations:int ->
  priority:Priority.t ->
  Policy.context ->
  plan
(** Full backfill schedule at one decision point: the queue in
    priority order, then {!pass} reserving the first [reservations]
    blocked jobs (exposed so tests and the Figure-5-style analyses can
    inspect reservations). *)

val policy : ?reservations:int -> Priority.t -> Policy.t
(** [policy priority] is the backfill scheduling policy (default one
    reservation).  Its name is e.g. ["FCFS-backfill"]. *)

val fcfs : Policy.t
(** FCFS-backfill, one reservation. *)

val lxf : Policy.t
(** LXF-backfill, one reservation. *)

val sjf : Policy.t
(** SJF-backfill, one reservation (starvation-prone; for comparisons). *)

val run_now : Policy.t
(** Trivial greedy policy ["run-now"]: {!pass} over the submit-ordered
    queue with no reservations, i.e. start jobs in FCFS order while
    they fit the free nodes (pure space sharing, starves wide jobs).
    With nothing reserved ahead, free nodes only grow after [now], so
    "fits for its duration" is "fits now".  Useful as a worst-case
    baseline and in tests. *)
