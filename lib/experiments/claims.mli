(** Automated shape checks: the paper's key qualitative claims,
    evaluated over the same (memoized) simulation runs the figures use.
    Prints one PASS/FAIL line per claim — absolute numbers differ from
    the paper (synthetic workloads), but these relationships must
    hold for the reproduction to count. *)

val run : Format.formatter -> unit
