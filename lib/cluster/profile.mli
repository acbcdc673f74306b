(** Availability profile: free nodes as a step function of time.

    The profile is the shared substrate of both the backfill schedulers
    and the search policies' path builder: it answers "when is the
    earliest time a job of width [nodes] can run for [duration]?" and
    records tentative placements.

    Segment [i] spans [time i, time (i+1)) with [free i] nodes free;
    the last segment extends to infinity.  The representation is a pair
    of flat arrays and every operation mutates in place.  Tree search
    backtracks through a reverse-delta {e trail}: {!mark} the profile
    before a reservation, and {!undo_to} rolls back exactly the
    segments that reservation touched — O(touched), not O(segments).
    The hot loop stays allocation-free (trail buffers grow
    geometrically, off the hot path). *)

type t

val create : now:float -> capacity:int -> t
(** Fully-free machine from [now] onward. *)

val of_running :
  now:float -> capacity:int -> (float * int) list -> t
(** [of_running ~now ~capacity releases] builds the profile implied by
    the currently running jobs; [releases] are [(end_time, nodes)]
    pairs (estimated ends).  End times at or before [now] release
    immediately.  @raise Invalid_argument if running jobs oversubscribe
    the machine, or if a release after [now] frees fewer than one
    node. *)

val of_sorted_releases :
  now:float ->
  capacity:int ->
  not_before:float ->
  float array ->
  int array ->
  int ->
  t
(** [of_sorted_releases ~now ~capacity ~not_before ends nodes n] is
    {!of_running} over the [n] releases [(max ends.(k) not_before,
    nodes.(k))], for [ends] already in ascending order: one pass, no
    sort, no list.  Raising every end to a floor keeps them ascending,
    so {!Running_set.profile} passes its maintained release order with
    the overdue clamp as [not_before]; {!of_running} sorts its list
    into arrays and passes [neg_infinity].  The segments come out
    normalized in that one pass: every release after [now] frees at
    least one node, so free counts strictly grow from one segment to
    the next, and the first segment starts at [now].
    @raise Invalid_argument as {!of_running}. *)

val segment_count : t -> int

val segments : t -> (float * int) list
(** [(start, free)] list for inspection and tests. *)

val free_now : t -> now:float -> int
(** The free count of the first segment, for a profile that begins at
    [now] (every profile a policy builds, {!Sched.Policy.profile_of}).
    A job wider than it cannot start now.
    @raise Invalid_argument if the profile does not begin at [now]. *)

val floor : t -> float array -> int array -> int
(** [floor t times free] writes the {e floor} of [t] from its start
    [t0] — the running minimum of its free nodes, [m(s) = min] of the
    free count over [\[t0, s\]] — as steps, and returns their number
    [n]: [m(s) = free.(k)] for [times.(k) <= s < times.(k+1)],
    [times.(0) = t0], the last step extending to infinity.  The free
    counts strictly decrease from step to step, and each step [k > 0]
    begins at a segment boundary of [t].  The first step below [nodes]
    is where a job of that width first meets too few free nodes, so
    [nodes] nodes are free during all of [\[t0, t0 + d)] iff no step is
    below [nodes], or the first one that is has [k > 0] and
    [times.(k) >= t0 +. d]: one answer per width for every duration,
    where a scan of the window costs one pass per job
    ([Sched.Backfill.pass] keeps the floor for its start test).  The
    arrays need at least {!segment_count} slots. *)

val place_earliest : t -> nodes:int -> duration:float -> float
(** Find the earliest start [s] (a segment boundary, so never before
    the profile's start) at which [nodes] nodes are free during the
    whole of [\[s, s + duration)], reserve there, and return [s] — one
    pass over the profile, no re-location, and no start-side split.
    The search hot path.
    @raise Invalid_argument if [nodes] exceeds capacity or
    [duration <= 0]. *)

val stage_duration : t -> float -> unit
(** Stage the duration for {!place_earliest_staged}.  One expression,
    so it inlines at call sites and the float crosses without being
    boxed. *)

val place_earliest_staged : t -> nodes:int -> unit
(** Exactly {!place_earliest} with the duration read from
    {!stage_duration} and the start time delivered through
    {!staged_start}.  This staged triple exists for the innermost
    search loop: float arguments and results of out-of-line calls are
    boxed, and at millions of nodes per decision those allocations
    dominate.  Anywhere else, call {!place_earliest}. *)

val staged_start : t -> float
(** Start time chosen by the last {!place_earliest_staged}. *)

val reserve : t -> at:float -> nodes:int -> duration:float -> unit
(** Subtract [nodes] from the free count during [\[at, at+duration)].
    Merges equal-free neighbours locally (O(segments touched), no full
    renormalization); when trailing is on, every mutation is recorded
    so the reservation can be undone exactly.
    @raise Invalid_argument if this would drive any segment negative
    (i.e. the caller did not check {!floor}). *)

(** {2 Trail-based backtracking}

    Discipline: take a {!mark} before each reservation and {!undo_to}
    the marks in reverse (LIFO) order — exactly the shape of a
    depth-first search.  Recording starts at the first [mark]; profiles
    that never mark (the backfill engines) pay one branch per mutation
    and nothing else. *)

type mark = int
(** A position on the undo trail, as returned by {!mark}.  Mark [0] is
    the state at the first {!mark} call. *)

val mark : t -> mark
(** Enable trailing (idempotent) and return the current trail
    position. *)

val undo_to : t -> mark -> unit
(** Roll back every mutation recorded since the mark was taken, in
    reverse order.  Cost is proportional to the number of recorded
    mutations, i.e. to the segments touched — not to the profile size.
    @raise Invalid_argument if the mark is not on the current trail
    (e.g. already undone past). *)

val trail_length : t -> int
(** Number of recorded mutations (0 when trailing is off or fully
    undone).  For tests and instrumentation. *)

val copy : t -> t
(** Independent copy of the segments.  The copy starts with an empty
    trail and trailing off. *)

val invariant : t -> bool
(** Structural invariant: times strictly increasing, free counts within
    [\[0, capacity\]], adjacent segments with equal free counts merged.
    Used by tests. *)
