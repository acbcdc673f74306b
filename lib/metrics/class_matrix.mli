(** Average wait per job class (Figure 5).

    Jobs are partitioned by five actual-runtime ranges and five
    node-count classes; each cell holds the average wait of its jobs.
    Row index = runtime class ({!Workload.Job.runtime_class5}), column
    index = node class ({!Workload.Job.node_class5}). *)

type t

val compute : Outcome.t list -> t

val pp : Format.formatter -> t -> unit
(** Render as a 5x5 table of average waits in hours ("-" for empty
    cells). *)
