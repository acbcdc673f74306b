(** Summary statistics: whole-sample helpers (mean, percentiles,
    maximum) on float arrays, and a {!Timeline} accumulator for the
    time-weighted average of a step function, used for average queue
    length. *)

val mean : float array -> float
(** 0.0 on the empty array. *)

val percentile : float array -> float -> float
(** [percentile xs p] is the [p]-th percentile ([0 <= p <= 100]) using
    linear interpolation between closest ranks.  Does not mutate [xs].
    @raise Invalid_argument on an empty array or [p] out of range. *)

val max : float array -> float
(** @raise Invalid_argument on the empty array. *)

module Timeline : sig
  type t
  (** Accumulates the time integral of a piecewise-constant signal,
      e.g. queue length over time. *)

  val create : start:float -> t
  val record : t -> now:float -> value:float -> unit
  (** [record t ~now ~value] states that the signal takes [value] from
      [now] onward.  Calls must have non-decreasing [now]. *)

  val average : t -> upto:float -> float
  (** Time-weighted average of the signal from [start] to [upto].
      0.0 when the window is empty. *)

  val min_value : t -> upto:float -> float
  val max_value : t -> upto:float -> float
  (** Extremes of the step signal over [start, upto], counting only
      values held for a positive span of time — a value overwritten at
      the instant it was recorded never existed on the time axis (so
      same-instant re-records cannot distort the extremes).  0.0 when
      the window is empty, matching [average]. *)
end
