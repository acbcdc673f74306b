type t = {
  now : float;
  secondary : Objective.secondary;
  jobs : Workload.Job.t array;
  durations : float array;
  thresholds : float array;
  work : Cluster.Profile.t;  (* the single mutable profile, owned *)
  marks : Cluster.Profile.mark array;  (* one trail mark per depth *)
  (* Circular doubly-linked list of unused job indices in increasing
     order, with sentinel [n]: the heuristic child (rank 0) and each next
     sibling are one step away.  Removal and LIFO re-insertion
     are the dancing-links constant-time splices. *)
  unext : int array;
  uprev : int array;
  chosen : int array;
  starts : float array;
  (* Partial objectives as unboxed parallel arrays: the hot path writes
     two floats per placement instead of allocating an Objective.t. *)
  p_excess : float array;
  p_secondary : float array;
  on_place : (depth:int -> job:int -> start:float -> unit) option;
  mutable visited : int;
}

let reset_links t =
  let n = Array.length t.jobs in
  for i = 0 to n do
    t.unext.(i) <- (i + 1) mod (n + 1);
    t.uprev.(i) <- (i + n) mod (n + 1)
  done

let create ?(secondary = Objective.Bounded_slowdown) ?on_place ~now ~profile
    ~jobs ~durations ~thresholds () =
  let n = Array.length jobs in
  if Array.length durations <> n || Array.length thresholds <> n then
    invalid_arg "Search_state.create: array length mismatch";
  let t =
    {
      now;
      secondary;
      jobs;
      durations;
      thresholds;
      work = profile;
      marks = Array.make n 0;
      unext = Array.make (n + 1) 0;
      uprev = Array.make (n + 1) 0;
      chosen = Array.make n (-1);
      starts = Array.make n 0.0;
      p_excess = Array.make n 0.0;
      p_secondary = Array.make n 0.0;
      on_place;
      visited = 0;
    }
  in
  reset_links t;
  t

let secondary t = t.secondary
let job_count t = Array.length t.jobs
let nodes_visited t = t.visited

let place t ~depth ~job =
  (* [job] is on the unused list iff its predecessor links back to it:
     removal unlinks a job from both neighbours but keeps its own links *)
  assert (t.unext.(t.uprev.(job)) = job);
  let j = t.jobs.(job) in
  let d = t.durations.(job) in
  let duration = Sched.Policy.planned_duration d in
  t.marks.(depth) <- Cluster.Profile.mark t.work;
  Cluster.Profile.stage_duration t.work duration;
  Cluster.Profile.place_earliest_staged t.work ~nodes:j.Workload.Job.nodes;
  let s = Cluster.Profile.staged_start t.work in
  let wait = s -. j.Workload.Job.submit in
  let excess, secondary_sum =
    if depth = 0 then (0.0, 0.0)
    else (t.p_excess.(depth - 1), t.p_secondary.(depth - 1))
  in
  let over = wait -. t.thresholds.(job) in
  t.p_excess.(depth) <- (if over > 0.0 then excess +. over else excess);
  t.p_secondary.(depth) <-
    secondary_sum
    +.
    (match t.secondary with
    | Objective.Bounded_slowdown ->
        let denom = if d > Simcore.Units.minute then d else Simcore.Units.minute in
        1.0 +. (wait /. denom)
    | Objective.Avg_wait -> wait);
  t.unext.(t.uprev.(job)) <- t.unext.(job);
  t.uprev.(t.unext.(job)) <- t.uprev.(job);
  t.chosen.(depth) <- job;
  t.starts.(depth) <- s;
  t.visited <- t.visited + 1;
  match t.on_place with
  | None -> ()
  | Some f -> f ~depth ~job ~start:s

let unplace t ~depth =
  let job = t.chosen.(depth) in
  assert (job >= 0 && t.unext.(t.uprev.(job)) <> job);
  Cluster.Profile.undo_to t.work t.marks.(depth);
  (* dancing-links re-insertion: valid because unplacements mirror
     placements in LIFO order *)
  t.unext.(t.uprev.(job)) <- job;
  t.uprev.(t.unext.(job)) <- job;
  t.chosen.(depth) <- -1

let reset t =
  let n = Array.length t.jobs in
  Array.fill t.chosen 0 n (-1);
  Array.fill t.starts 0 n 0.0;
  Array.fill t.p_excess 0 n 0.0;
  Array.fill t.p_secondary 0 n 0.0;
  reset_links t;
  Cluster.Profile.undo_to t.work 0

let chosen t ~depth = t.chosen.(depth)
let start_at t ~depth = t.starts.(depth)

let partial t ~depth =
  {
    Objective.excess = t.p_excess.(depth);
    secondary_sum = t.p_secondary.(depth);
    jobs = depth + 1;
  }

let leaf_objective t = partial t ~depth:(Array.length t.jobs - 1)

let first_unused t = t.unext.(Array.length t.jobs)
let next_unused t job = t.unext.(job)

let start_now_set t ~order ~starts =
  let picked = ref [] in
  Array.iteri
    (fun d job -> if starts.(d) = t.now then picked := t.jobs.(job) :: !picked)
    order;
  List.rev !picked
