(** Calibrated synthetic workload generator.

    Regenerates a month of NCSA IA-64-like load from the published
    marginals in {!Month_profile}:

    + arrival times follow a non-homogeneous Poisson-like process with
      diurnal and weekly modulation, sampled by inverse-CDF so the job
      count is exact: the uniform targets are sorted once and mapped
      through the monotone inverse in one sweep;
    + node counts are drawn from the Table 3 per-range job fractions,
      preferring "round" sizes (powers of two) within a range;
    + runtimes are drawn per node class from a three-bucket mixture
      (T <= 1h / 1h < T <= 5h / T > 5h) whose probabilities come from
      Table 4, log-uniform within a bucket;
    + per-range runtime scaling (clamped to the bucket, iterated)
      calibrates the per-range processor-demand fractions and total
      offered load toward the Table 3 targets, and a final compression
      of the time axis ({!Trace.load_squeeze}) makes the load exact;
    + each job is built once, with its {!Estimate} requested runtime
      and its user, at its final submit.

    Everything is deterministic in the seed.  A one-week warm-up and
    cool-down flank the measured month, as in the paper's methodology. *)

type config = {
  seed : int;
  scale : float;
      (** scales the job count *and* the time axis together, so offered
          load and queueing dynamics are preserved; 1.0 = published
          month *)
  users : int;
      (** size of the user population; jobs are attributed to users
          1..users with a Zipf-like popularity (a few heavy users
          dominate, as on real machines).  Used by the fairshare
          extension. *)
}

val default_config : config
(** seed 42, scale 1.0, 40 users. *)

val month : ?config:config -> Month_profile.t -> Trace.t
(** [month profile] generates the trace for one month.  The measurement
    window is [\[w, w + Month_profile.span)], after a warm-up of [w]
    = one week; a cool-down of one week follows it, and [scale]
    scales all three. *)

val draw_nodes : Simcore.Rng.t -> range:int -> int
(** Sample a node count within Table 3 range index [range] (exposed for
    testing). *)

val bucket_bounds : limit:float -> int -> float * float
(** [(lo, hi]] runtime bounds of bucket 0 (short), 1 (middle),
    2 (long) given the month's runtime limit. *)

val arrival_times :
  Simcore.Rng.t -> origin:float -> span:float -> count:int -> float array
(** Diurnally-modulated arrival times, ascending, within
    [\[origin, origin + span)] (exposed for testing). *)

val sort_floats : float array -> unit
(** Sorts a NaN-free array in place exactly as
    [Array.stable_sort Float.compare] does (exposed for testing). *)
