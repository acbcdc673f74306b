module M = Simcore.Metrics

(* Sequential lets, not record fields (whose evaluation order is
   unspecified), fix the registration order and with it the
   exposition's family order. *)
let search_recorder reg =
  let decisions =
    M.counter reg "schedsim_search_decisions"
      ~help:"decision points at which the tree search ran"
  in
  let nodes =
    M.counter reg "schedsim_search_nodes"
      ~help:"search nodes visited across all decisions"
  in
  let leaves =
    M.counter reg "schedsim_search_leaves"
      ~help:"complete schedules evaluated across all decisions"
  in
  let exhausted =
    M.counter reg "schedsim_search_exhausted"
      ~help:"decisions whose whole tree fit in the node budget"
  in
  let improvements =
    M.counter reg "schedsim_search_improvements"
      ~help:"incumbent improvements across all decisions"
  in
  let nodes_per_decision =
    M.histogram reg "schedsim_search_nodes_per_decision"
      ~help:"search nodes visited per decision point"
  in
  fun (p : Simcore.Telemetry.Probe.t) ->
    if p.budget > 0 then begin
      M.incr decisions;
      M.add nodes p.nodes;
      M.add leaves p.leaves;
      if p.exhausted then M.incr exhausted;
      M.add improvements p.improvements;
      M.observe nodes_per_decision p.nodes
    end

let observer reg (policy : Sched.Policy.t) =
  let queue_depth =
    M.histogram reg "schedsim_queue_depth"
      ~help:"waiting jobs per decision point"
  in
  let wait =
    M.histogram reg "schedsim_wait_seconds"
      ~help:"per-job wait at start, seconds"
  in
  let backlog =
    M.gauge reg "schedsim_backlog_nodes"
      ~help:"nodes demanded by waiting jobs after the last decision"
  in
  let busy =
    M.gauge reg "schedsim_busy_nodes"
      ~help:"busy nodes after the last decision"
  in
  let queue =
    M.gauge reg "schedsim_queue_jobs"
      ~help:"waiting jobs after the last decision"
  in
  let completed =
    M.counter reg "schedsim_jobs_completed" ~help:"jobs completed"
  in
  let started = M.counter reg "schedsim_jobs_started" ~help:"jobs started" in
  let decisions =
    M.counter reg "schedsim_decisions" ~help:"scheduling decision points"
  in
  let search = Option.map (fun _ -> search_recorder reg) policy.probe in
  fun (d : Engine.decision) ->
    (match (search, d.probe) with
    | Some record, Some p -> record p
    | _ -> ());
    List.iter
      (fun (j : Workload.Job.t) ->
        M.incr started;
        M.observe wait (int_of_float (d.now -. j.submit)))
      d.started;
    M.add completed
      (M.counter_value started - d.running - M.counter_value completed);
    M.incr decisions;
    M.set queue (float_of_int d.queue);
    M.set busy (float_of_int d.busy);
    M.set backlog (float_of_int d.demand);
    M.observe queue_depth d.queue
