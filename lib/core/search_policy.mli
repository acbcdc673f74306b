(** The goal-oriented, search-based scheduling policies (Section 2.3).

    A policy is a combination of search algorithm (DDS or LDS),
    branching heuristic (fcfs or lxf), target wait bound (fixed or
    dynamic) and node budget L, named as in the paper — e.g.
    ["DDS/lxf/dynB(L=1K)"] is the paper's headline policy.

    At each decision point the policy builds the availability profile,
    ranks the waiting jobs by the branching heuristic, searches the
    job-order tree for the schedule minimizing the two-level objective
    and starts the jobs whose best-schedule start time is *now*. *)

type config = {
  algorithm : Search.algorithm;
  heuristic : Sched.Priority.t;
      (** the branching heuristic (Section 2.2): the queue order the
          left-most branch follows at every tree node, any other
          branch being a discrepancy; the paper's are
          {!Sched.Priority.fcfs} and {!Sched.Priority.lxf} *)
  bound : Bound.t;
  budget : int;  (** the paper's L: max nodes visited per decision *)
  prune : bool;  (** branch-and-bound extension (off = paper) *)
  local_search : bool;  (** post-search swap improvement extension *)
  fairshare : float option;
      (** when [Some penalty], per-job thresholds are inflated by
          [1 + penalty * user's decayed usage share] (Section 7
          future-work extension; [None] = paper behaviour) *)
  goal : Objective.secondary;
      (** the declared second-level goal; {!v} sets the paper's
          [Bounded_slowdown], and a record update sets another *)
}

val v :
  ?prune:bool ->
  ?local_search:bool ->
  ?fairshare:float ->
  algorithm:Search.algorithm ->
  heuristic:Sched.Priority.t ->
  bound:Bound.t ->
  budget:int ->
  unit ->
  config

val dds_lxf_dynb : budget:int -> config
(** The paper's best policy: DDS / lxf / dynamic bound. *)

type stats = { total_nodes : int  (** nodes visited across all decisions *) }

val policy : config -> Sched.Policy.t * (unit -> stats)
(** The scheduling policy, named as in the paper (e.g.
    ["DDS/lxf/dynB(L=1K)"], with [+bnb], [@goal=avgW] or [+fair(p)]
    suffixes), plus an accessor for the nodes it has
    visited so far, over all its decisions (the benchmark's
    reproduction check reads it).  The policy carries
    a per-instance search-effort probe ([Sched.Policy.probe]) holding
    the last decision's effort, local-search nodes included; the
    engine turns it into the decision log and the [schedsim_search_*]
    run metrics. *)
