(** Random distributions used by the workload generator.

    All samplers draw from an explicit {!Rng.t} so that workloads are
    reproducible and independent across generator streams. *)

val log_uniform : lo:float -> hi:float -> Rng.t -> float
(** Log-uniform in [\[lo, hi)]: uniform in log-space, so each decade is
    equally likely.  [log_uniform ~lo ~hi] takes the logs once; keep the
    function it returns.  @raise Invalid_argument unless
    [0 < lo <= hi] and [hi] is finite (so NaN bounds are refused). *)

val lognormal : Rng.t -> mu:float -> sigma:float -> float
(** [exp] of a Gaussian (Box–Muller) with mean [mu] and standard
    deviation [sigma]. *)

val categorical : weights:float array -> Rng.t -> int
(** [categorical ~weights] validates [weights] and builds their
    cumulative table once; the function it returns draws index [i] with
    probability proportional to [weights.(i)] by one {!Rng.float}.
    @raise Invalid_argument ["Dist.categorical: negative weight"],
    ["...: non-finite weight"] (NaN, infinity, an overflowing sum) or
    ["...: all weights zero"] (also for no weights). *)

val bernoulli : Rng.t -> p:float -> bool
(** True with probability [p] (clamped to [\[0,1\]]). *)
