(** Normalized excessive-wait measures.

    The paper evaluates how well policies avoid "unfortunate" jobs by
    the wait in excess of a threshold [t], where [t] is taken from the
    FCFS-backfill run of the same month: either its maximum wait
    (E^max_fcfs-bf) or its 98th-percentile wait (E^98%_fcfs-bf).
    By construction FCFS-backfill has zero total E^max in any month. *)

type t = {
  total : float;  (** sum of per-job excess, seconds *)
  count : int;  (** number of jobs with a positive excess *)
  average : float;  (** mean excess over jobs with positive excess, s *)
}

val compute : threshold:float -> Outcome.t list -> t
(** The excess of each job's wait over [threshold] seconds. *)

val total_hours : t -> float
val average_hours : t -> float
