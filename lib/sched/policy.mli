(** The on-line scheduling policy interface.

    A policy is consulted at every decision point (job arrival or
    departure).  It sees the current time, the waiting queue in submit
    order, the running set, and the runtime estimator [r_star] the
    simulation was configured with (R* = T for actual runtimes, R* = R
    for user estimates).  It returns the waiting jobs to start *now*;
    the engine validates that they fit the free nodes.

    Policies must be deterministic functions of their arguments (plus
    any internal state they carry); the engine may call [decide] any
    number of times. *)

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
(** Availability profile implied by the running set at [ctx.now]. *)

val run_now : t
(** Trivial greedy policy: start jobs in FCFS order while they fit,
    no reservations (pure space sharing, starves wide jobs).  Useful
    as a worst-case baseline and in tests. *)
