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

let run ?(machine = Cluster.Machine.titan) ?observe ~r_star ~policy trace =
  (* On-line predictor state (Predicted mode): running mean of the
     actual/requested ratio of completed jobs, seeded at 1.0 (trust the
     user until evidence accumulates). *)
  let ratio_sum = ref 1.0 in
  let ratio_count = ref 1 in
  let estimator (j : Workload.Job.t) =
    match r_star with
    | Actual -> j.runtime
    | Requested -> j.requested
    | Predicted ->
        let ratio = !ratio_sum /. float_of_int !ratio_count in
        Float.max Simcore.Units.minute (Float.min j.requested (j.requested *. ratio))
  in
  let learn (j : Workload.Job.t) =
    if r_star = Predicted then begin
      ratio_sum := !ratio_sum +. (j.runtime /. j.requested);
      incr ratio_count
    end
  in
  let jobs = Workload.Trace.jobs trace in
  Array.iter
    (fun j ->
      if not (Cluster.Machine.fits machine j) then
        invalid_arg
          (Printf.sprintf "Engine.run: job %d wider than machine"
             j.Workload.Job.id))
    jobs;
  (* Arrivals are read off the submit-ordered trace through a cursor;
     departures come from the running set's finish order, equal
     finishes in start order. *)
  let n_jobs = Array.length jobs in
  let next_arrival = ref 0 in
  let running = Cluster.Running_set.create ~machine in
  (* Waiting queue in submit order: appends at the back.  [n_waiting]
     is its length, kept so no decision has to count the list. *)
  let waiting : Workload.Job.t list ref = ref [] in
  let n_waiting = ref 0 in
  let outcomes = ref [] in
  let queue_samples = ref [] in
  let decisions = ref 0 in
  let start_job now (j : Workload.Job.t) =
    (* Ids are unique, so [j] is waiting at most once: drop it and copy
       only the jobs queued in front of it. *)
    let rec without = function
      | [] ->
          invalid_arg
            (Printf.sprintf "Engine.run: policy started non-waiting job %d"
               j.id)
      | w :: rest -> if Workload.Job.equal w j then rest else w :: without rest
    in
    let rest = without !waiting in
    let o = Metrics.Outcome.v ~job:j ~start:now in
    let finish = Metrics.Outcome.finish o in
    Cluster.Running_set.add running
      { job = j; finish; est_finish = now +. estimator j };
    waiting := rest;
    decr n_waiting;
    outcomes := o :: !outcomes
  in
  (* The next arrival's submit time, [infinity] once all have arrived. *)
  let next_submit () =
    if !next_arrival < n_jobs then jobs.(!next_arrival).submit else infinity
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
  let rec loop () =
    let submit = next_submit ()
    and departure = Cluster.Running_set.next_finish running in
    let now = if submit <= departure then submit else departure in
    if now < infinity then begin
      (* Apply exactly the events at [now], arrivals first. *)
      while next_submit () = now do
        waiting := !waiting @ [ jobs.(!next_arrival) ];
        incr next_arrival;
        incr n_waiting
      done;
      while Cluster.Running_set.next_finish running = now do
        learn (Cluster.Running_set.pop_finished running).job
      done;
      let ctx =
        { Sched.Policy.now; waiting = !waiting; running; r_star = estimator }
      in
      let to_start = policy.Sched.Policy.decide ctx in
      incr decisions;
      let seen = !n_waiting in
      List.iter (start_job now) to_start;
      (match observe with
      | None -> ()
      | Some f -> f (report now ~seen to_start));
      queue_samples := { time = now; length = !n_waiting } :: !queue_samples;
      loop ()
    end
  in
  loop ();
  {
    outcomes = List.rev !outcomes;
    queue_samples = List.rev !queue_samples;
    decisions = !decisions;
  }

let windowed_queue_average samples ~from_ ~upto =
  let timeline = Simcore.Stats.Timeline.create ~start:from_ in
  List.iter
    (fun { time; length } ->
      if time <= upto then
        Simcore.Stats.Timeline.record timeline ~now:(Float.max from_ time)
          ~value:(float_of_int length))
    samples;
  Simcore.Stats.Timeline.average timeline ~upto
