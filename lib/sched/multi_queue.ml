let queue_rank ~boundaries r =
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
      (fun ~now:_ ~r_star j ->
        -.float_of_int (queue_rank ~boundaries (r_star j)));
  }

let policy ?(boundaries = default_boundaries) ?(reservations = 1) () =
  let priority = priority ~boundaries () in
  let inner = Backfill.policy ~reservations priority in
  Policy.make
    ~name:(Printf.sprintf "multi-queue-backfill(%d queues)"
             (List.length boundaries + 1))
    ~decide:inner.Policy.decide
