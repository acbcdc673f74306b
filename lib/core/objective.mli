(** The hierarchical two-level objective (Section 2.1).

    Schedule A is better than schedule B iff A has smaller total
    excessive wait, or the totals are equal (within a float tolerance)
    and A has smaller average bounded slowdown.  Values accumulate
    per-job contributions, so partial (prefix) values are monotone:
    adding a job can only increase both components — which is what
    makes branch-and-bound pruning sound.  {!Search_state.place}
    accumulates them, job by job along the path; this module holds the
    value and its order. *)

type secondary = Bounded_slowdown | Avg_wait
(** The tie-breaking goal.  [Bounded_slowdown] is the paper's choice;
    [Avg_wait] is the alternative a site preferring raw responsiveness
    would declare (goal-oriented scheduling is exactly about making
    this a configuration, not a code change). *)

val min_contribution : secondary -> float
(** Smallest possible per-job secondary value (1.0 for slowdown, 0.0
    for wait) — the admissible bound branch-and-bound pruning uses. *)

type t = {
  excess : float;  (** total excessive wait, seconds *)
  secondary_sum : float;  (** sum of per-job secondary values *)
  jobs : int;  (** number of jobs accumulated *)
}

val is_better : candidate:t -> incumbent:t -> bool
(** Lexicographic: smaller total excess, or equal excess and a smaller
    average secondary value ([secondary_sum / jobs], 0 for no jobs).
    Both levels compare with a small relative tolerance, so float noise
    does not override the hierarchy; values equal within it are
    neither better. *)
