(** Relaxed backfill (Ward, Mahood & West, JSSPP 2002).

    Like EASY backfill while the queue head is blocked, but a backfill
    candidate is allowed to push the head job's earliest start back by
    up to a relaxation allowance — a configurable fraction of the
    head's estimated runtime.  A small relaxation recovers utilization
    lost to the hard reservation at a bounded cost in head-job delay;
    a large one degenerates toward no-reservation greedy scheduling.

    Once the head fits, nothing is protected: the head and every other
    job that fits start ({!Backfill.pass} with no reservations), where
    EASY would reserve the first blocked job.  On an empty 128-node
    machine with the queue A (2 nodes, 1 h), B (128 nodes, 1 h),
    C (126 nodes, 10 h), FCFS-backfill starts [A] but [relaxed 0.0]
    starts [A; C], delaying B by 9 h.  The allowance is also measured
    afresh at every decision, so it bounds no job's total delay. *)

val policy : ?relaxation:float -> unit -> Policy.t
(** [relaxation] is the allowed delay as a fraction of the head job's
    estimated runtime (default 0.5, as in the original paper's favoured
    setting).  @raise Invalid_argument if negative. *)
