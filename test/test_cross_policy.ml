(* Cross-policy end-to-end properties: every policy in the library,
   driven over random mini workloads, must satisfy the fundamental
   scheduling invariants.  (The engine itself enforces capacity; these
   properties check completion, causality and work conservation at the
   whole-simulation level.) *)

let machine = Cluster.Machine.v ~nodes:16

let all_policies () =
  let search config = fst (Core.Search_policy.policy config) in
  [
    Sched.Backfill.fcfs;
    Sched.Backfill.lxf;
    Sched.Backfill.sjf;
    Sched.Backfill.policy Sched.Priority.lxf_w;
    Sched.Conservative.policy;
    Sched.Selective.policy ();
    Sched.Multi_queue.policy;
    Sched.Backfill.run_now;
    search (Core.Search_policy.dds_lxf_dynb ~budget:150);
    search
      (Core.Search_policy.v ~algorithm:Core.Search.Lds
         ~heuristic:Sched.Priority.fcfs ~bound:(Core.Bound.fixed_hours 1.0)
         ~budget:150 ());
    search
      (Core.Search_policy.v ~algorithm:Core.Search.Lds_original
         ~heuristic:Sched.Priority.lxf ~bound:Core.Bound.dynamic ~budget:150
         ());
    search
      (Core.Search_policy.v ~prune:true ~local_search:true ~fairshare:1.5
         ~algorithm:Core.Search.Dds ~heuristic:Sched.Priority.lxf
         ~bound:Core.Bound.dynamic ~budget:150 ());
  ]

(* Every job ran once, and none before its submit.  How long each held
   its nodes is [Helpers.held_as_reported]'s check. *)
let outcomes_ok n (result : Sim.Engine.result) =
  let outcomes = result.Sim.Engine.outcomes in
  List.length outcomes = n
  && List.for_all
       (fun (o : Metrics.Outcome.t) -> o.start >= o.job.Workload.Job.submit)
       outcomes

let sound n (result, reports) =
  outcomes_ok n result
  && Helpers.held_as_reported ~capacity:machine.Cluster.Machine.nodes result
       reports

let prop_all_policies_sound =
  QCheck.Test.make ~name:"all policies: complete, causal, within capacity"
    ~count:15 QCheck.int
    (fun seed ->
      let n = 30 in
      let trace =
        Helpers.mini_trace ~seed:(seed + 1) ~n ~capacity:16 ~horizon:4000.0 ()
      in
      let trace = Helpers.with_users ~users:3 trace in
      List.for_all
        (fun policy ->
          sound n (Helpers.run_observed ~machine ~policy trace))
        (all_policies ()))

let prop_estimators_sound =
  QCheck.Test.make ~name:"all estimators: complete and causal" ~count:15
    QCheck.int
    (fun seed ->
      let n = 30 in
      let trace = Helpers.mini_trace ~seed:(seed + 100) ~n ~capacity:16 () in
      List.for_all
        (fun r_star ->
          sound n
            (Helpers.run_observed ~machine ~r_star ~policy:Sched.Backfill.lxf
               trace))
        [ Sim.Engine.Actual; Sim.Engine.Requested; Sim.Engine.Predicted ])

(* Arrivals and departures on one 60 s grid: many decision points
   drain an arrival and a departure together.  The validator regroups
   the events itself, so its EASY differential checks the engine's
   same-instant order independently; under R*=pred [Run.simulate]
   keeps only the generic invariants.  The jittered copy adds
   sub-nanosecond near-ties: an arrival 0.5 ns after a departure is a
   decision of its own, and a job may start there, at its submit. *)
let prop_tie_heavy_schedules_validate =
  QCheck.Test.make ~name:"grid-aligned traces: schedules validate"
    ~count:10 QCheck.int
    (fun seed ->
      List.for_all
        (fun jitter ->
          let trace = Helpers.grid_trace ~jitter ~seed:(seed + 200) () in
          let validates ~expect ~r_star policy =
            let run =
              Sim.Run.simulate ~machine ~validate:expect ~r_star ~policy trace
            in
            Schedcheck.Report.ok (Option.get run.Sim.Run.validation)
          in
          List.for_all
            (fun r_star ->
              validates ~r_star
                ~expect:
                  (Schedcheck.Validator.expectation_of_policy "FCFS-backfill")
                Sched.Backfill.fcfs)
            [ Sim.Engine.Actual; Sim.Engine.Requested; Sim.Engine.Predicted ]
          && List.for_all
               (validates ~expect:Schedcheck.Validator.Generic
                  ~r_star:Sim.Engine.Actual)
               (all_policies ()))
        [ false; true ])

(* Nodes are held for exactly T, on grid traces whose arrivals and
   departures share instants, with and without sub-nanosecond
   near-ties. *)
let prop_nodes_held_for_runtime =
  QCheck.Test.make ~name:"nodes held for exactly T" ~count:10 QCheck.int
    (fun seed ->
      List.for_all
        (fun jitter ->
          let trace = Helpers.grid_trace ~jitter ~seed:(seed + 300) () in
          List.for_all
            (fun policy ->
              let result, reports =
                Helpers.run_observed ~machine ~policy trace
              in
              Helpers.held_as_reported ~capacity:machine.Cluster.Machine.nodes
                result reports)
            (all_policies ()))
        [ false; true ])

let suite =
  [
    Helpers.qcheck prop_all_policies_sound;
    Helpers.qcheck prop_estimators_sound;
    Helpers.qcheck prop_tie_heavy_schedules_validate;
    Helpers.qcheck prop_nodes_held_for_runtime;
  ]
