(** Queue-based priority scheduling (the production-scheduler style the
    paper's introduction argues against, cf. PBS / LSF).

    Jobs are routed to queues by estimated runtime (e.g. short <= 1h,
    medium <= 5h, long); queues are served in priority order — shorter
    queues first — FCFS within a queue, with EASY backfill across the
    whole waiting set.  Improves responsiveness for short jobs but can
    starve the long queue, which is exactly the failure mode the
    goal-oriented policies are designed to avoid. *)

val queue_rank : boundaries:float list -> float -> int
(** [queue_rank ~boundaries r] is the index of the queue for estimated
    runtime [r]: the first boundary at or above it, or
    [length boundaries] when none is. *)

val priority : ?boundaries:float list -> unit -> Priority.t
(** The queue order: lower {!queue_rank} first (the key is the negated
    rank), FCFS within a queue. *)

val policy : Policy.t
(** ["multi-queue-backfill(3 queues)"]: {!Backfill.policy} with one
    reservation over {!priority} at the default boundaries, 1 hour and
    5 hours. *)
