(** Decision-level search telemetry.

    {!Probe} is a caller-owned mutable record that a searching policy
    overwrites once per decision from the search's result (see
    [Core.Search_policy.policy]); filling it never allocates.  Named
    run-health counters, gauges and histograms live in {!Metrics}. *)

module Probe : sig
  type t = {
    mutable nodes : int;  (** nodes visited by the last search *)
    mutable leaves : int;  (** complete schedules evaluated *)
    mutable iterations : int;  (** completed discrepancy iterations *)
    mutable budget : int;
        (** the node budget L the search ran under; 0 after {!reset},
            so [budget > 0] tells a decision that searched from one
            that did not *)
    mutable exhausted : bool;  (** whole tree explored within budget *)
    mutable improvements : int;
        (** number of incumbent improvements (>= 1: the heuristic path
            always records a first incumbent) *)
    mutable winner_iteration : int;
        (** discrepancy iteration that produced the final incumbent
            (0 = the pure heuristic path) *)
    mutable winner_depth : int;
        (** DDS: choice-depth of the forced discrepancy of the winning
            iteration; -1 for iteration 0 and for non-DDS algorithms *)
  }
  (** Caller-owned per-decision search-effort record.  The policy
      overwrites every field at each decision, so one preallocated
      probe can be reused across all decisions of a simulation; reading
      it is only meaningful between decisions. *)

  val create : unit -> t
  val reset : t -> unit
end
