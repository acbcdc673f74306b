(** ASCII schedule visualisation.

    Two views over a set of {!Metrics.Outcome} records:

    - {!jobs_chart}: one row per job showing queueing time ([.]) and
      execution ([#]) on a common time axis — readable up to a few
      dozen jobs, ideal for examples and debugging policy decisions;
    - {!utilization_chart}: busy-node counts over time rendered as a
      vertical-bar sparkline, usable for traces of any size.

    Both are pure functions of the outcomes; time is bucketed into 72
    columns. *)

val jobs_chart : Format.formatter -> Metrics.Outcome.t list -> unit
(** Render per-job rows in submit order: [.] waiting, [#] running.
    Shows at most 40 jobs, and prints a note when jobs are elided. *)

val utilization_chart :
  capacity:int ->
  Format.formatter ->
  Metrics.Outcome.t list ->
  unit
(** Render machine occupancy over time: each column shows the average
    number of busy nodes in its time bucket, as a 0-9 digit scale plus
    a bar. *)
