(** Export simulation outcomes for external analysis: CSV with one row
    per job (id, user, nodes, submit, start, finish, runtime,
    requested, wait, bounded slowdown), for notebooks.  A schedule as
    SWF, with the wait field filled, is {!Workload.Swf.to_file}'s
    [~wait]. *)

val to_csv : string -> Outcome.t list -> unit
(** Write outcomes to a CSV file (header included), in submit order. *)
