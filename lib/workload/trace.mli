(** A job trace: an immutable, submit-ordered collection of jobs plus
    the measurement window used for reporting.

    Simulations include a warm-up and cool-down week around the month
    being measured (as in the paper); only jobs submitted inside
    [measure_start, measure_end) contribute to reported statistics. *)

type t

val v : ?measure_start:float -> ?measure_end:float -> Job.t list -> t
(** [v jobs] builds a trace: [of_array] over [Array.of_list jobs]. *)

val of_array : ?measure_start:float -> ?measure_end:float -> Job.t array -> t
(** [of_array jobs] builds a trace and takes ownership of [jobs]: the
    trace keeps the array itself, and the caller must neither mutate nor
    reuse it.  This is the one construction path; {!v} and
    {!scale_load} both end here.

    Jobs end up in {!Job.compare_submit} order.  One O(n) pass checks
    that order, and [Array.sort] runs only when it fails.  Ids must be
    unique.  When they strictly increase along the sorted array, as in
    generated and SWF traces, a second O(n) pass proves it; otherwise a
    sorted copy of the ids is scanned.  The measurement window defaults
    to the full span of the submissions.
    @raise Invalid_argument ["Trace.v: duplicate job id <id>"], naming
    the smallest duplicated id. *)

val jobs : t -> Job.t array
(** Submit-ordered jobs (do not mutate). *)

val length : t -> int
val measure_start : t -> float
val measure_end : t -> float

val measured : t -> Job.t list
(** Jobs submitted within the measurement window, submit order. *)

val in_window : t -> Job.t -> bool
(** Whether a job is inside the measurement window. *)

val load : capacity:int -> window:float -> float -> float
(** [load ~capacity ~window demand] is the offered load of [demand]
    node-seconds over [capacity] nodes for [window] seconds; 0 when the
    window is empty. *)

val load_squeeze :
  capacity:int -> target:float -> measure_start:float -> measure_end:float ->
  submit:float array -> nodes:int array -> runtime:float array ->
  float -> float
(** {!scale_load}'s map on times, for jobs given as columns in submit
    order (job [i] runs [runtime.(i)] s on [nodes.(i)] nodes from
    [submit.(i)]), so that a generator can build each job once, at its
    squeezed submit, equal bit for bit to what [scale_load] makes.
    @raise Invalid_argument as {!scale_load} does. *)

val scale_load : t -> capacity:int -> target:float -> t
(** [scale_load t ~capacity ~target] compresses inter-arrival times by
    a constant factor so that the offered load of the measured window
    (the N x T demand of its jobs over capacity x window length)
    becomes [target] (the paper's rho = 0.9 construction).  Runtimes
    and node counts are unchanged; the measurement window is compressed
    by the same factor.  The jobs are mapped into a fresh array with no
    list round-trip; compression is monotone, so the trace is re-sorted
    only when it rounds submits into ties between jobs whose ids run
    against submit order.  @raise Invalid_argument if the trace has no
    load or [target <= 0]. *)

val concat_stats : t -> string
(** One-line human-readable summary. *)
