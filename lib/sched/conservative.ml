let policy =
  Policy.make ~name:"conservative-fcfs"
    ~decide:(Backfill.policy ~reservations:max_int Priority.fcfs).Policy.decide
