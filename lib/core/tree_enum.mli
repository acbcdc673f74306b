(** Symbolic enumeration of the search tree (Figure 1).

    Pure combinatorial counterparts of {!Search}'s walk: iteration
    membership by discrepancy count (LDS, original LDS) or deepest
    discrepancy (DDS), over the same paths the admission rules yield.
    Used to reproduce Figure 1(a)-(f) (which paths each iteration of
    LDS and DDS visits, in order) and Figure 1(d) (tree sizes), and as
    the specification the test suite checks the kernel's placements
    against: each iteration walked left to right, a path re-placing
    only what it does not share with the path before it.  The kernel
    walks the heuristic path first for every algorithm, DFS included,
    so its DFS order is that path followed by iteration 0 of DFS. *)

val paths_in_iteration :
  Search.algorithm -> n:int -> iteration:int -> int list list
(** Paths (sequences of job indices, 0-based; index order = heuristic
    order) visited by the given iteration, left to right.  Iteration 0
    is the heuristic path for LDS and DDS; for DFS, iteration 0 is the
    whole tree.  A path's {e discrepancies} are the positions where the
    chosen job is not the smallest-index job still unused: iteration
    [k] of LDS holds the paths with exactly [k], of original LDS those
    with at most [k]; iteration [k > 0] of DDS holds those whose
    deepest discrepancy is at choice depth [k - 1]. *)

val path_count : n:int -> float
(** n! as a float (exact for the table's range). *)

val node_count : n:int -> float
(** Number of tree nodes excluding the root:
    sum over k = 1..n of n!/(n-k)!. *)
