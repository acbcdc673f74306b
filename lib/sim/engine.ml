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
  horizon : float;
  validation : Schedcheck.Report.t option;
}

type event = Arrival of Workload.Job.t | Finish of int

(* The engine's own run-health instruments, registered on the caller's
   fresh registry when [?metrics] is given. *)
type instruments = {
  m_decisions : Simcore.Metrics.counter;
  m_started : Simcore.Metrics.counter;
  m_completed : Simcore.Metrics.counter;
  m_queue : Simcore.Metrics.gauge;
  m_busy : Simcore.Metrics.gauge;
  m_backlog : Simcore.Metrics.gauge;
  m_wait : Simcore.Metrics.histogram;
  m_queue_depth : Simcore.Metrics.histogram;
}

let instruments_of reg =
  {
    m_decisions =
      Simcore.Metrics.counter reg "schedsim_decisions"
        ~help:"scheduling decision points";
    m_started =
      Simcore.Metrics.counter reg "schedsim_jobs_started"
        ~help:"jobs started";
    m_completed =
      Simcore.Metrics.counter reg "schedsim_jobs_completed"
        ~help:"jobs completed";
    m_queue =
      Simcore.Metrics.gauge reg "schedsim_queue_jobs"
        ~help:"waiting jobs after the last decision";
    m_busy =
      Simcore.Metrics.gauge reg "schedsim_busy_nodes"
        ~help:"busy nodes after the last decision";
    m_backlog =
      Simcore.Metrics.gauge reg "schedsim_backlog_nodes"
        ~help:"nodes demanded by waiting jobs after the last decision";
    m_wait =
      Simcore.Metrics.histogram reg "schedsim_wait_seconds"
        ~help:"per-job wait at start, seconds";
    m_queue_depth =
      Simcore.Metrics.histogram reg "schedsim_queue_depth"
        ~help:"waiting jobs per decision point";
  }

(* Search-effort instruments, registered after the engine's own when
   the policy carries a probe.  Sequential lets, not record fields
   (whose evaluation order is unspecified), keep the exposition in
   registration order.  The returned recorder reads the probe after a
   decision and counts it when it searched. *)
let search_recorder reg =
  let counter = Simcore.Metrics.counter reg in
  let decisions =
    counter "schedsim_search_decisions"
      ~help:"decision points at which the tree search ran"
  in
  let nodes =
    counter "schedsim_search_nodes"
      ~help:"search nodes visited across all decisions"
  in
  let leaves =
    counter "schedsim_search_leaves"
      ~help:"complete schedules evaluated across all decisions"
  in
  let exhausted =
    counter "schedsim_search_exhausted"
      ~help:"decisions whose whole tree fit in the node budget"
  in
  let improvements =
    counter "schedsim_search_improvements"
      ~help:"incumbent improvements across all decisions"
  in
  let nodes_per_decision =
    Simcore.Metrics.histogram reg "schedsim_search_nodes_per_decision"
      ~help:"search nodes visited per decision point"
  in
  fun (p : Simcore.Telemetry.Probe.t) ->
    if p.budget > 0 then begin
      Simcore.Metrics.incr decisions;
      Simcore.Metrics.add nodes p.nodes;
      Simcore.Metrics.add leaves p.leaves;
      if p.exhausted then Simcore.Metrics.incr exhausted;
      Simcore.Metrics.add improvements p.improvements;
      Simcore.Metrics.observe nodes_per_decision p.nodes
    end

let run ?(machine = Cluster.Machine.titan) ?log ?series ?metrics ?validate
    ~r_star ~policy trace =
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
  let inst = Option.map instruments_of metrics in
  let search_effort =
    match (metrics, policy.Sched.Policy.probe) with
    | Some reg, Some probe -> Some (search_recorder reg, probe)
    | _ -> None
  in
  (* Waiting queue in submit order: appends at the back.  [n_waiting]
     is its length, kept so no decision has to count the list. *)
  let waiting : Workload.Job.t list ref = ref [] in
  let n_waiting = ref 0 in
  let outcomes = ref [] in
  let queue_samples = ref [] in
  let decisions = ref 0 in
  let horizon = ref 0.0 in
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
    let wait = now -. j.submit in
    (match series with
    | None -> ()
    | Some s -> Series.note_start s ~wait);
    (match inst with
    | None -> ()
    | Some i ->
        Simcore.Metrics.incr i.m_started;
        Simcore.Metrics.observe i.m_wait (int_of_float wait));
    outcomes := Metrics.Outcome.v ~job:j ~start:now ~finish :: !outcomes
  in
  let apply now = function
    | Arrival j ->
        waiting := !waiting @ [ j ];
        incr n_waiting
    | Finish id ->
        let entry = Cluster.Running_set.remove running ~id in
        learn entry.Cluster.Running_set.job;
        (match inst with
        | None -> ()
        | Some i -> Simcore.Metrics.incr i.m_completed);
        horizon := Float.max !horizon now
  in
  (* One pass over the post-decision queue: length, core demand
     (backlog) and the longest current wait. *)
  let health_sample now =
    let queue = ref 0 and demand = ref 0 and max_wait = ref 0.0 in
    List.iter
      (fun (j : Workload.Job.t) ->
        incr queue;
        demand := !demand + j.nodes;
        let w = now -. j.submit in
        if w > !max_wait then max_wait := w)
      !waiting;
    let busy = Cluster.Running_set.busy_nodes running in
    (match series with
    | None -> ()
    | Some s ->
        Series.observe s ~now ~busy ~queue:!queue ~demand:!demand
          ~running:(Cluster.Running_set.count running) ~max_wait:!max_wait);
    match inst with
    | None -> ()
    | Some i ->
        Simcore.Metrics.incr i.m_decisions;
        Simcore.Metrics.set i.m_queue (float_of_int !queue);
        Simcore.Metrics.set i.m_busy (float_of_int busy);
        Simcore.Metrics.set i.m_backlog (float_of_int !demand);
        Simcore.Metrics.observe i.m_queue_depth !queue
  in
  let rec drain_instant now =
    match Simcore.Event_queue.next_time events with
    | Some t when t <= now +. 1e-9 ->
        let _, e = Option.get (Simcore.Event_queue.pop events) in
        apply now e;
        drain_instant now
    | _ -> ()
  in
  let rec loop () =
    match Simcore.Event_queue.pop events with
    | None -> ()
    | Some (now, e) ->
        apply now e;
        drain_instant now;
        horizon := Float.max !horizon now;
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
        (match log with
        | None -> ()
        | Some l ->
            Decision_log.record l ~time:now
              ~queue:!n_waiting
              ~started:(List.length to_start)
              ~probe:policy.Sched.Policy.probe);
        Option.iter (fun (record, probe) -> record probe) search_effort;
        List.iter (start_job now) to_start;
        if series <> None || inst <> None then health_sample now;
        queue_samples :=
          { time = now; length = !n_waiting } :: !queue_samples;
        loop ()
  in
  loop ();
  let outcomes = List.rev !outcomes in
  let validation =
    match validate with
    | None -> None
    | Some expect ->
        (* The Predicted estimator is stateful (it learns as jobs
           complete), so its profiles cannot be rebuilt after the fact:
           keep the machine-level invariants, drop the differential. *)
        let expect =
          if r_star = Predicted then Schedcheck.Validator.Generic
          else expect
        in
        let replay_r_star (j : Workload.Job.t) =
          match r_star with
          | Requested -> j.requested
          | Actual | Predicted -> Float.min j.runtime j.requested
        in
        Some
          (Schedcheck.Validator.validate ~machine ~expect
             ~r_star:replay_r_star ~subject:policy.Sched.Policy.name ~trace
             ~outcomes ())
  in
  {
    outcomes;
    queue_samples = List.rev !queue_samples;
    decisions = !decisions;
    horizon = !horizon;
    validation;
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
