(** Whole-run summary statistics.

    Aggregates per-job {!Outcome} records into the measures reported in
    the paper's figures: average and maximum wait, average bounded
    slowdown, wait percentiles, plus the time-averaged queue length
    supplied by the simulation engine. *)

type t = {
  n_jobs : int;
  avg_wait : float;  (** seconds *)
  max_wait : float;  (** seconds; 0 when no jobs *)
  p98_wait : float;  (** 98th-percentile wait, seconds; 0 when no jobs *)
  avg_bounded_slowdown : float;
  avg_queue_length : float;
}

val compute : ?avg_queue_length:float -> Outcome.t list -> t

val avg_wait_hours : t -> float
val max_wait_hours : t -> float

val pp : Format.formatter -> t -> unit
