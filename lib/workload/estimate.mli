(** User requested-runtime model.

    Real user estimates are notoriously inaccurate: a sizeable fraction
    of jobs request far more time than they use, and requests cluster
    on round values (1h, 2h, 4h, ...).  This module draws a synthetic
    requested runtime R for a job with known actual runtime T, following
    the overestimation mixture reported for these workloads (Chiang,
    Arpaci-Dusseau & Vernon, JSSPP 2002); {!Generator} and {!Model}
    draw one per generated job:

    - with probability 0.2 the user is accurate (R rounds T up to the
      next grid value);
    - with probability 0.25 a mild overestimate, factor log-uniform in
      [1, 2];
    - otherwise a large overestimate, factor log-uniform in [2, 20].

    R is always rounded up to a human "grid" value, clamped to the
    system runtime limit and kept >= T. *)

val round_up : limit:float -> float -> float
(** [round_up ~limit r] is the smallest round value (5 min to 48 h)
    below [limit] that is >= [r], else [limit].  It scans a static
    list and allocates nothing. *)

val draw : Simcore.Rng.t -> limit:float -> runtime:float -> float
(** [draw rng ~limit ~runtime] samples a requested runtime for a job
    with actual runtime [runtime].  Result is in
    [\[runtime, max limit runtime\]]. *)
