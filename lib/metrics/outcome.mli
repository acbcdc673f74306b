(** Per-job scheduling outcome.

    The simulator produces one outcome per completed job; every
    reported measure in the paper derives from these records. *)

type t = {
  job : Workload.Job.t;
  start : float;  (** time the job began executing *)
  finish : float;  (** time the job completed *)
}

val v : job:Workload.Job.t -> start:float -> finish:float -> t
(** @raise Invalid_argument unless [submit <= start < finish]. *)

val wait : t -> float
(** Queueing delay, seconds. *)

val bounded_slowdown : t -> float
(** The paper's measure: actual runtime is lower-bounded by one minute,
    so very short jobs do not blow up the average.  For a job with
    T <= 1 min this equals [1 + wait in minutes]. *)

val excess_wait : t -> threshold:float -> float
(** Wait time in excess of [threshold] (>= 0), seconds. *)
