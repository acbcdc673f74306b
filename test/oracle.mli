(** Differential oracles: independent re-implementations to test the
    optimized subsystems against.

    Each oracle is deliberately naive — small enough to audit by eye —
    and structurally different from the implementation it checks:

    - {!enumerate_best} re-derives the optimal schedule objective by
      evaluating {e every} job order with a fresh placement per path,
      against which {!Core.Search}'s complete algorithms (DFS, LDS,
      DDS) must agree exactly when exhausted;
    - {!reference_backfill} re-plans an EASY backfill decision on a
      plain busy-interval list (no availability profile, no segment
      merging), with the queue ordered by [List.stable_sort] over
      {!compare_priority}, against which {!Sched.Backfill.plan}
      (keyed order, profile) must agree exactly;
    - the trail-vs-snapshot oracle for {!Core.Search_state} is a
      test-side replay in [test/test_search.ml]: every placement's
      start must equal the earliest start on a fresh copy of the base
      profile with the path prefix replayed.

    The qcheck suites in [test/test_check.ml] wire the first two to
    random workload generators. *)

val all_paths : Core.Search.algorithm -> n:int -> int list list
(** The complete visit order of [algorithm]'s iterations over [n]
    jobs: {!Core.Tree_enum.paths_in_iteration} concatenated over
    iterations [0 .. n-1] (DFS: its one iteration).  For original LDS
    it holds the repeats the algorithm performs. *)

val enumerate_best : Core.Search_state.t -> Core.Objective.t
(** Best objective over all [n!] complete job orders, evaluated one
    path at a time through {!all_paths} [Dfs].  The state is
    reset before and after.  Intended for tiny queues.
    @raise Invalid_argument if the state has no jobs or more than 8
    (factorial blow-up). *)

val compare_priority :
  Sched.Priority.t ->
  now:float ->
  r_star:(Workload.Job.t -> float) ->
  Workload.Job.t ->
  Workload.Job.t ->
  int
(** The order {!Sched.Priority.order} promises, as a comparator
    (negative: the first job goes first): higher key first, equal keys
    (and {!Sched.Priority.Submit_order}) in {!Workload.Job.compare_submit}
    order.  It recomputes both keys on every call. *)

type reference_plan = {
  start_now : Workload.Job.t list;  (** decision order, like the real plan *)
  reserved : (Workload.Job.t * float) list;
}

val first : int -> Workload.Job.t -> bool
(** [first k] is a fresh reservation rule granting the first [k] jobs it
    is asked about: {!Sched.Backfill.plan}'s rule for [~reservations:k]. *)

val reference_backfill :
  reserve:(Workload.Job.t -> bool) ->
  priority:Sched.Priority.t ->
  Sched.Policy.context ->
  reference_plan
(** Same contract as {!Sched.Backfill.pass} over the queue in priority
    order, which is {!Sched.Backfill.plan} when [reserve] is [first k]
    and {!Sched.Selective} when it is the starved rule over FCFS;
    [reserve] is asked once per blocked job, in order.  Computed naively: node
    usage is a list of busy [(from, until, nodes)] intervals (running
    jobs and carved reservations); a job fits at [t] iff at every
    interval boundary within its span the summed overlap leaves enough
    free nodes; the earliest start is found by trying [now] and every
    interval boundary in increasing order.  Candidate starts are
    boundaries in both implementations, so agreement is exact (same
    floats), not approximate. *)
