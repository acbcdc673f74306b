(** The paper's headline comparison on one scenario: FCFS-backfill,
    LXF-backfill and DDS/lxf/dynB (L = 1K, R* = T), the
    [policy avgW(h) maxW(h) avgBsld] table, and the three relations the
    paper's claim rests on.  {!Seeds} and {!Robustness} re-check the
    claim on workloads the figures never see; their runs go through
    {!Common.simulate_scenario} like every other experiment's. *)

val prefetch : Common.scenario list -> unit
(** Warm every (scenario, policy) run through the pool. *)

val runs : Common.scenario -> (string * Sim.Run.t) list
(** The scenario's three runs, labelled, in table order. *)

val pp_table : Format.formatter -> (string * Sim.Run.t) list -> unit

val relations : (string * Sim.Run.t) list -> (string * bool) list
(** "LXF slowdown < FCFS slowdown", "DDS max wait <= 1.15 x FCFS max
    wait" and "DDS slowdown < FCFS slowdown", with their outcomes. *)
