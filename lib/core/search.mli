(** Complete, anytime, discrepancy-based tree search (Section 2.2).

    Every algorithm is one walk over the job-order tree, iteration by
    iteration, that keeps the best complete schedule seen so far under
    {!Objective.compare} and stops when the tree is exhausted or the
    node budget is spent.  A node visit is one job placement
    ({!Search_state.place}), matching the paper's node-limit L.

    A node's children are the unused jobs in index (heuristic) order:
    the first is the heuristic child, each other one is a discrepancy.
    The algorithms differ only in which children a node at choice-depth
    [depth] admits:

    - [Dds] (depth-bounded discrepancy search, Walsh 1997): iteration
      [i] forces its deepest discrepancy at [f = i - 1].  The heuristic
      child is admitted unless [depth = f], the others iff
      [depth <= f]: discrepancies above [f], one at [f], none below.
    - [Lds] (improved limited discrepancy search, Korf 1996): iteration
      [k] explores exactly the paths with [k] discrepancies.  With [r]
      discrepancies left and [m = max 0 (n - 2 - depth)] levels below
      that can still take one, the heuristic child is admitted iff
      [r <= m], the others iff [1 <= r <= m + 1].
    - [Lds_original] (Harvey & Ginsberg 1995): iteration [k] explores
      every path with at most [k] discrepancies, re-visiting the paths
      of earlier iterations — the redundancy Korf's variant removes.
      The heuristic child is always admitted, the others iff [r >= 1].
      Included for the search-algorithm ablation.
    - [Dfs] is plain depth-first search: every child is admitted.
      Included as a baseline and for exhaustive-equivalence tests.

    Iteration 0, the pure heuristic path, is DDS with [f = -1] for
    every algorithm.  It is always evaluated in full, even if it
    exceeds the budget, so the policy always has a schedule. *)

type algorithm = Dfs | Lds | Lds_original | Dds

val algorithm_name : algorithm -> string

type result = {
  best : Objective.t;  (** objective of the best complete schedule *)
  best_order : int array;  (** job indices in consideration order *)
  best_starts : float array;  (** start times aligned with [best_order] *)
  nodes_visited : int;
  leaves_evaluated : int;
  iterations : int;  (** completed discrepancy iterations *)
  exhausted : bool;  (** the whole tree was explored *)
  improvements : int;
      (** incumbent improvements (>= 1: the heuristic path always
          records a first incumbent) *)
  winner_iteration : int;
      (** iteration that produced [best] (0 = the heuristic path) *)
  winner_depth : int;
      (** DDS: choice-depth of the forced discrepancy of the iteration
          that produced [best]; -1 for iteration 0 and for the other
          algorithms *)
}

val run :
  ?prune:bool -> algorithm -> budget:int -> Search_state.t -> result
(** [run algo ~budget state] searches and returns the best schedule
    with the search's effort.  [prune] enables the branch-and-bound
    extension: subtrees whose partial objective already cannot beat the
    incumbent are skipped (sound because partial objectives are
    monotone).  Requires at least one waiting job.
    @raise Invalid_argument on an empty state. *)
