(** Conservative backfill: every queued job holds a reservation, so a
    backfilled job can never delay *any* earlier-arriving job.  The
    classic low-risk/low-reward end of the backfill spectrum, included
    as an extra baseline for the ablation benches. *)

val policy : Policy.t
(** ["conservative-fcfs"]: {!Backfill.policy} over the FCFS order with
    a reservation for every blocked job. *)
