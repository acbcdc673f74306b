(** The set of currently executing jobs.

    Tracks, for every running job, its start time, its true completion
    time (known to the simulator) and its *estimated* completion time
    (known to the scheduler: start + R*, where R* is the runtime the
    policy was configured to trust).  There is no job table: the set
    is two sorted arrays, kept ordered by one insertion step as jobs
    start.  The estimated releases give a scheduler's availability
    {!Profile} in one pass with no sort ({!profile}); the true
    finishes are the simulator's departure order ({!next_finish},
    {!pop_finished}). *)

type entry = {
  job : Workload.Job.t;
  start : float;
  finish : float;  (** true end: start + T *)
  est_finish : float;  (** scheduler-visible end: start + R* *)
}

type t

val create : machine:Machine.t -> t
val machine : t -> Machine.t

val busy_nodes : t -> int
val free_nodes : t -> int
val count : t -> int

val add : t -> entry -> unit
(** @raise Invalid_argument if the job oversubscribes the machine or is
    already running. *)

val next_finish : t -> float
(** The earliest true [finish] among the running jobs, [infinity] when
    none runs.  It builds no option, so an event loop can poll it for
    free. *)

val pop_finished : t -> entry
(** Remove and return the job with the earliest true [finish].  Jobs
    with equal finishes leave in the order they were added (start
    order).  @raise Invalid_argument if nothing runs. *)

val overdue_grace : float
(** 1 ms: {!releases} and {!profile} report no release sooner than
    [now +. overdue_grace]. *)

val releases : t -> now:float -> (float * int) list
(** [(estimated end, nodes)] pairs for profile construction; estimated
    ends before [now +. overdue_grace], past or about to come, are
    reported at it (a job that outlives its estimate still holds its
    nodes).  Every policy's start-now test is exact, so a release after
    [now] keeps its nodes out of any start now: no policy can be tricked
    into starting a job on nodes a running job still occupies.
    Unspecified order; it is read from the departure order, never from
    the estimated releases behind {!profile}, and so serves as their
    reference. *)

val profile : t -> now:float -> Profile.t
(** The availability profile at [now]: exactly
    [Profile.of_running ~now ~capacity (releases t ~now)], built from
    the maintained release order without a sort or a list. *)
