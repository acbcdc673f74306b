(** Per-job scheduling outcome.

    The simulator produces one outcome per completed job; every
    reported measure in the paper derives from these records. *)

type t = { job : Workload.Job.t; start : float  (** time it began *) }

val finish : t -> float
(** [start +. T], derived: the one definition of a job's end, at which
    the engine releases its nodes (a job runs for exactly T). *)

val v : job:Workload.Job.t -> start:float -> t
(** @raise Invalid_argument if [start < submit] or [finish <= start]
    (T absorbed by a large [start], e.g. submit 2{^53} and T = 0.5). *)

val wait : t -> float
(** Queueing delay, seconds. *)

val bounded_slowdown : t -> float
(** The paper's measure: actual runtime is lower-bounded by one minute,
    so very short jobs do not blow up the average.  For a job with
    T <= 1 min this equals [1 + wait in minutes]. *)

val excess_wait : t -> threshold:float -> float
(** Wait time in excess of [threshold] (>= 0), seconds. *)
