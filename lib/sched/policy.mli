(** The on-line scheduling policy interface.

    A policy is consulted at every decision point (job arrival or
    departure).  It sees the current time, the waiting queue in submit
    order, the running set, and the runtime estimator [r_star] the
    simulation was configured with (R* = T for actual runtimes, R* = R
    for user estimates).  It returns the waiting jobs to start *now*;
    the engine validates that they fit the free nodes.

    Policies must be deterministic functions of their arguments (plus
    any internal state they carry); the engine may call [decide] any
    number of times.

    Every policy plans on {!profile_of}, and its guarantees hold on
    that profile:
    - {!profile_of} releases no nodes before
      [now +. Cluster.Running_set.overdue_grace] (1 ms): a running
      job's estimated end earlier than that, overdue or not, is read
      at that instant;
    - so a release 0.5 ns after [now] is seen at [now +. 1 ms] by every
      policy, and a reservation promised at it reads [now +. 1 ms];
    - every policy compares a start with [now] exactly: a job starts
      now only on the nodes free at [now], so no policy starts a job
      on nodes a running job still holds. *)

type context = {
  now : float;
  waiting : Workload.Job.t list;  (** submit order *)
  running : Cluster.Running_set.t;
  r_star : Workload.Job.t -> float;  (** scheduler-visible runtime *)
}

type t = {
  name : string;
  decide : context -> Workload.Job.t list;
  probe : Simcore.Telemetry.Probe.t option;
      (** search-effort record the policy overwrites on every [decide]
          ([None] for policies that do not search).  The engine hands
          it to its observers with each decision report; the decision
          log snapshots it and the run metrics add it to the
          [schedsim_search_*] instruments. *)
}

val make : name:string -> decide:(context -> Workload.Job.t list) -> t
(** A policy without a probe ([probe = None]). *)

val with_probe : t -> Simcore.Telemetry.Probe.t -> t
(** Attach the search-effort record the policy's [decide] fills. *)

val profile_of : context -> Cluster.Profile.t
(** Availability profile implied by the running set at [ctx.now], with
    every release floored at [now +. Cluster.Running_set.overdue_grace]
    ({!Cluster.Running_set.profile}). *)

val planned_duration : float -> float
(** [planned_duration r] is how long a plan holds a job's nodes when
    its estimated runtime is [r]: [r], and at least 1 s.  Every
    backfill pass and every search placement uses it.  A typed compare,
    so it inlines and calls nothing; for every [r] but NaN it equals
    [Float.max r 1.0], whose [-0.0] test is an out-of-line
    [caml_signbit] call. *)
