(** Textual policy specifications for the command-line tools.

    Grammar (case-insensitive):
    - backfill family: ["fcfs-bf"], ["lxf-bf"], ["sjf-bf"],
      ["lxfw-bf"], ["conservative"], ["selective"], ["multi-queue"],
      ["run-now"];
    - search family: ["ALGO/HEUR/BOUND"], e.g. ["dds/lxf/dynb"],
      ["lds/fcfs/w=50"] (fixed bound in hours), ["dds/lxf/rt=1:2"]
      (runtime-scaled bound: floor hours and factor).  Suffix options
      ["+bnb"] (pruning), ["+ls"] (local search) and ["+fair"]
      (fairshare thresholds, penalty 2.0) may be appended.

    The node budget L comes from the separate [~budget] argument. *)

val parse : budget:int -> string -> (Sched.Policy.t, string) result

val known : string list
(** Example specs for help output. *)
