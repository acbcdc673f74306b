(** Queue-based priority scheduling (the production-scheduler style the
    paper's introduction argues against, cf. PBS / LSF).

    Jobs are routed to queues by estimated runtime (e.g. short <= 1h,
    medium <= 5h, long); queues are served in priority order — shorter
    queues first — FCFS within a queue, with EASY backfill across the
    whole waiting set.  Improves responsiveness for short jobs but can
    starve the long queue, which is exactly the failure mode the
    goal-oriented policies are designed to avoid. *)

val policy : Policy.t
(** ["multi-queue-backfill(3 queues)"]: {!Backfill.policy} with one
    reservation over the queue order — short ([R* <= 1 h]) before
    medium ([<= 5 h]) before long, a boundary value going to the
    shorter queue, FCFS within a queue. *)
