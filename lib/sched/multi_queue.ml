(* The queue of estimated runtime [r]: the first boundary (1 h, 5 h)
   at or above it, else the last queue. *)
let queue_rank (r : float) =
  if r <= Simcore.Units.hour then 0
  else if r <= Simcore.Units.hours 5.0 then 1
  else 2

let priority =
  {
    Priority.name = "multi-queue";
    key =
      Keyed (fun ~now:_ ~r_star j -> -.float_of_int (queue_rank (r_star j)));
  }

let policy =
  Policy.make ~name:"multi-queue-backfill(3 queues)"
    ~decide:(Backfill.policy priority).Policy.decide
