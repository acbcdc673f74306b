let queue_rank ~boundaries (r : float) =
  let rec scan i = function
    | [] -> i
    | b :: rest -> if r <= b then i else scan (i + 1) rest
  in
  scan 0 boundaries

let default_boundaries = [ Simcore.Units.hour; Simcore.Units.hours 5.0 ]

let priority ?(boundaries = default_boundaries) () =
  {
    Priority.name = "multi-queue";
    key =
      Keyed
        (fun ~now:_ ~r_star j ->
          -.float_of_int (queue_rank ~boundaries (r_star j)));
  }

let policy =
  Policy.make ~name:"multi-queue-backfill(3 queues)"
    ~decide:(Backfill.policy (priority ())).Policy.decide
