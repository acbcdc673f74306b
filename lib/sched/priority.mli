(** Job priority functions for priority-backfill policies.

    A priority orders the waiting queue: higher key first, equal keys
    in submission order (and finally job id), so queue orders are total
    and deterministic.  FCFS has no key at all: its order is
    {!Submit_order}, the submission order itself.  SJF is keyed by the
    negated estimated runtime, LXF and LXF&W by their scores. *)

type key =
  | Submit_order
      (** no per-job key: the queue in submission order (FCFS) *)
  | Keyed of
      (now:float -> r_star:(Workload.Job.t -> float) -> Workload.Job.t -> float)
      (** the job's priority at decision time [now]; a pure function
          of its arguments *)

type t = { name : string; key : key }

val order :
  t ->
  now:float ->
  r_star:(Workload.Job.t -> float) ->
  Workload.Job.t list ->
  Workload.Job.t list
(** The queue in priority order.  An already-ordered queue is detected
    in one pass and returned as is, without allocating; under
    {!Submit_order} that pass compares submit times and ids only and
    calls no key, so the engine's submit-ordered queue costs FCFS no
    key work at all.  Otherwise each job's key is computed once into a
    float array (all equal under {!Submit_order}) and an index
    permutation is merge-sorted on it, so a decision costs n key
    computations, not two per comparison. *)

val fcfs : t
(** First come, first served. *)

val sjf : t
(** Shortest estimated runtime first.  Known to starve long jobs. *)

val lxf : t
(** Largest expansion factor (slowdown) first.  The expansion factor
    of a waiting job is [(wait + R) / max(R, 1min)] with R the
    estimated runtime — the bounded
    slowdown it would have if started now. *)

val lxf_w : weight_per_hour:float -> t
(** LXF plus a small additive weight for each hour of waiting time
    (the paper's LXF&W). *)

val expansion_factor :
  now:float -> r_star:(Workload.Job.t -> float) -> Workload.Job.t -> float
(** The bounded expansion factor, {!lxf}'s key. *)
