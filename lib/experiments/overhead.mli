(** Scheduling overhead (Section 2.3): wall-clock time to visit
    1K - 8K nodes in a tree of 30 waiting jobs.  The paper's Java
    simulator took 30-65 ms on a 2 GHz Pentium 4.  All timing uses
    the monotonic clock ([Simcore.Clock]), never [Unix.gettimeofday]. *)

val synthetic_state :
  ?n_waiting:int ->
  seed:int ->
  unit ->
  Core.Search_state.t
(** A fresh decision-point state with [n_waiting] queued jobs (default
    30) over a realistically loaded 128-node machine.  Each call
    returns an independent state (search consumes it). *)

val nodes_per_ms :
  ?n_waiting:int ->
  ?repeats:int ->
  budget:int ->
  unit ->
  float
(** Search throughput of DDS/lxf on the synthetic decision point:
    nodes visited per millisecond, averaged over [repeats] (default
    20) independently seeded states at node budget L = [budget].  The
    quantity tracked by BENCH_search_hotpath.json and the @perf-smoke
    alias. *)

val run : Format.formatter -> unit
