type r_star = Actual | Requested | Predicted

let r_star_name = function
  | Actual -> "R*=T"
  | Requested -> "R*=R"
  | Predicted -> "R*=pred"

type queue_sample = { time : float; length : int }

type result = {
  outcomes : Metrics.Outcome.t list;
  queue_samples : queue_sample list;
  decisions : int;
}

type decision = {
  now : float;
  seen : int;
  started : Workload.Job.t list;
  queue : int;
  demand : int;
  max_wait : float;
  busy : int;
  running : int;
  probe : Simcore.Telemetry.Probe.t option;
}

type event = Arrival of Workload.Job.t | Finish of int

let run ?(machine = Cluster.Machine.titan) ?observe ~r_star ~policy trace =
  (* On-line predictor state (Predicted mode): running mean of the
     actual/requested ratio of completed jobs, seeded at 1.0 (trust the
     user until evidence accumulates). *)
  let ratio_sum = ref 1.0 in
  let ratio_count = ref 1 in
  let estimator (j : Workload.Job.t) =
    match r_star with
    | Actual -> Float.min j.runtime j.requested
    | Requested -> j.requested
    | Predicted ->
        let ratio = !ratio_sum /. float_of_int !ratio_count in
        Float.max Simcore.Units.minute (Float.min j.requested (j.requested *. ratio))
  in
  let learn (j : Workload.Job.t) =
    if r_star = Predicted then begin
      ratio_sum := !ratio_sum +. (Float.min j.runtime j.requested /. j.requested);
      incr ratio_count
    end
  in
  Array.iter
    (fun j ->
      if not (Cluster.Machine.fits machine j) then
        invalid_arg
          (Printf.sprintf "Engine.run: job %d wider than machine"
             j.Workload.Job.id))
    (Workload.Trace.jobs trace);
  let events = Simcore.Event_queue.create () in
  Array.iter
    (fun (j : Workload.Job.t) ->
      Simcore.Event_queue.schedule events ~time:j.submit (Arrival j))
    (Workload.Trace.jobs trace);
  let running = Cluster.Running_set.create ~machine in
  (* Waiting queue in submit order: appends at the back.  [n_waiting]
     is its length, kept so no decision has to count the list. *)
  let waiting : Workload.Job.t list ref = ref [] in
  let n_waiting = ref 0 in
  let outcomes = ref [] in
  let queue_samples = ref [] in
  let decisions = ref 0 in
  let start_job now (j : Workload.Job.t) =
    if not (List.exists (fun w -> Workload.Job.equal w j) !waiting) then
      invalid_arg
        (Printf.sprintf "Engine.run: policy started non-waiting job %d" j.id);
    let duration = Float.min j.runtime j.requested in
    let finish = now +. duration in
    Cluster.Running_set.add running
      { job = j; start = now; finish; est_finish = now +. estimator j };
    Simcore.Event_queue.schedule events ~time:finish (Finish j.id);
    waiting := List.filter (fun w -> not (Workload.Job.equal w j)) !waiting;
    decr n_waiting;
    outcomes := Metrics.Outcome.v ~job:j ~start:now ~finish :: !outcomes
  in
  let apply = function
    | Arrival j ->
        waiting := !waiting @ [ j ];
        incr n_waiting
    | Finish id ->
        let entry = Cluster.Running_set.remove running ~id in
        learn entry.Cluster.Running_set.job
  in
  (* The decision report: one pass over the post-start queue for the
     core demand (backlog) and the longest current wait. *)
  let report now ~seen started =
    let demand = ref 0 and max_wait = ref 0.0 in
    List.iter
      (fun (j : Workload.Job.t) ->
        demand := !demand + j.nodes;
        let w = now -. j.submit in
        if w > !max_wait then max_wait := w)
      !waiting;
    {
      now;
      seen;
      started;
      queue = !n_waiting;
      demand = !demand;
      max_wait = !max_wait;
      busy = Cluster.Running_set.busy_nodes running;
      running = Cluster.Running_set.count running;
      probe = policy.Sched.Policy.probe;
    }
  in
  let rec drain_instant now =
    match Simcore.Event_queue.next_time events with
    | Some t when t <= now +. 1e-9 ->
        let _, e = Option.get (Simcore.Event_queue.pop events) in
        apply e;
        drain_instant now
    | _ -> ()
  in
  let rec loop () =
    match Simcore.Event_queue.pop events with
    | None -> ()
    | Some (now, e) ->
        apply e;
        drain_instant now;
        let ctx =
          {
            Sched.Policy.now;
            waiting = !waiting;
            running;
            r_star = estimator;
          }
        in
        let to_start = policy.Sched.Policy.decide ctx in
        incr decisions;
        let seen = !n_waiting in
        List.iter (start_job now) to_start;
        (match observe with
        | None -> ()
        | Some f -> f (report now ~seen to_start));
        queue_samples :=
          { time = now; length = !n_waiting } :: !queue_samples;
        loop ()
  in
  loop ();
  {
    outcomes = List.rev !outcomes;
    queue_samples = List.rev !queue_samples;
    decisions = !decisions;
  }

let windowed_queue_average samples ~from_ ~upto =
  if upto <= from_ then 0.0
  else begin
    let integral = ref 0.0 in
    let last_time = ref from_ in
    let last_value = ref 0.0 in
    List.iter
      (fun { time; length } ->
        let t = Float.max from_ (Float.min upto time) in
        if t > !last_time then
          integral := !integral +. (!last_value *. (t -. !last_time));
        if time <= upto then begin
          last_time := Float.max from_ (Float.min upto time);
          last_value := float_of_int length
        end)
      samples;
    if upto > !last_time then
      integral := !integral +. (!last_value *. (upto -. !last_time));
    !integral /. (upto -. from_)
  end
