(** Mutable search-tree state: incremental schedule construction.

    A tree node at depth [d] corresponds to having placed [d + 1] jobs
    onto the availability profile, each at its earliest feasible start
    given the running jobs and the placements above it on the path
    (Section 2.2: "the start time of each job is computed in the order
    it appears on the path").

    Backtracking uses one profile, the one handed to {!create}, plus
    its reverse-delta trail: {!place} marks the trail before reserving
    and {!unplace} rolls back exactly the segments the reservation
    touched, so a place/unplace pair costs O(segments touched), not
    O(profile).  The test suite
    checks every placement against a snapshot replay of its path
    prefix on a fresh copy of the base profile.  The hot path
    allocates nothing per node.

    Jobs are indexed 0 .. n-1 in *heuristic order* (the branching
    heuristic of {!Search_policy.config}); child rank 0 of any node is
    the lowest-indexed unused job.  The unused set is a doubly-linked
    list, so the heuristic child and each next sibling are found in
    O(1) — no per-child rescans.  That list is the one record of which
    jobs are placed. *)

type t

val create :
  ?secondary:Objective.secondary ->
  ?on_place:(depth:int -> job:int -> start:float -> unit) ->
  now:float ->
  profile:Cluster.Profile.t ->
  jobs:Workload.Job.t array ->
  durations:float array ->
  thresholds:float array ->
  unit ->
  t
(** [profile] is the availability profile of the running set at [now].
    The state takes ownership of it: every placement reserves on it,
    every unplacement rolls it back through its trail, and {!reset}
    returns it to its state at [create].  The caller must pass a
    profile it has never marked and must not mutate it afterwards.
    [durations.(i)] is the scheduler-visible runtime of [jobs.(i)];
    [thresholds.(i)] its excessive-wait bound.  [secondary] selects the
    tie-breaking goal (default: the paper's bounded slowdown).
    [on_place] is an instrumentation hook invoked after every placement
    — used by the oracle tests to record visit sequences; leave unset
    on the hot path.
    @raise Invalid_argument on array length mismatch. *)

val secondary : t -> Objective.secondary

val job_count : t -> int

val nodes_visited : t -> int
(** Total placements performed so far (the paper's "nodes"). *)

val place : t -> depth:int -> job:int -> unit
(** [place t ~depth ~job] chooses job index [job] at [depth] and places
    it at its earliest start (readable via {!start_at}).  Returning the
    start would box a float per node, so it doesn't.  Depths must be
    filled in order; [job] must be unused.  Counts one node visit. *)

val unplace : t -> depth:int -> unit
(** Undo the placement at [depth] (must be the deepest placement). *)

val reset : t -> unit
(** Unplace everything: clears chosen jobs, recorded starts and
    partial objectives, rebuilds the unused list, and rewinds the
    profile to its state at {!create} — safe after a
    search unwound through an exception ({!Search.Budget_spent}) and
    left placements behind.  Does not reset the node counter. *)

val chosen : t -> depth:int -> int
val start_at : t -> depth:int -> float
val partial : t -> depth:int -> Objective.t
(** Objective of the path prefix through [depth]. *)

val leaf_objective : t -> Objective.t
(** Objective of a complete path (depth [n-1] placed). *)

val first_unused : t -> int
(** Lowest unused job index, or [job_count t] (the sentinel) when all
    jobs are placed.  O(1) — the head of the unused list. *)

val next_unused : t -> int -> int
(** Next unused job index after [job] (which must itself be unused),
    or [job_count t] when [job] is the last.  O(1).  Together with
    {!first_unused} this iterates the children of a node. *)

val start_now_set : t -> order:int array -> starts:float array -> Workload.Job.t list
(** Given a recorded best path (job indices + start times), the jobs
    whose start time is exactly the decision time, in path order — the
    jobs the policy starts immediately.  The test is exact because every
    start is a segment boundary of the profile, and none lies just after
    [now]: {!Cluster.Running_set.profile} releases nothing before [now]
    plus its overdue grace, and every placement lasts at least 1 s. *)
