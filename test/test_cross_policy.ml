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
    Sched.Backfill.policy (Sched.Priority.lxf_w ~weight_per_hour:0.02);
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

let outcomes_ok n (result : Sim.Engine.result) =
  let outcomes = result.Sim.Engine.outcomes in
  List.length outcomes = n
  && List.for_all
       (fun (o : Metrics.Outcome.t) ->
         o.start >= o.job.Workload.Job.submit
         && Float.abs
              (Metrics.Outcome.finish o -. o.start
              -. Float.min o.job.Workload.Job.runtime
                   o.job.Workload.Job.requested)
            < 1e-6)
       outcomes

let never_oversubscribed (result : Sim.Engine.result) =
  let events =
    List.concat_map
      (fun (o : Metrics.Outcome.t) ->
        [ (o.start, o.job.Workload.Job.nodes);
          (Metrics.Outcome.finish o, -o.job.Workload.Job.nodes) ])
      result.Sim.Engine.outcomes
    |> List.sort (fun (ta, da) (tb, db) ->
           let c = Float.compare ta tb in
           if c <> 0 then c else Int.compare da db)
  in
  let current = ref 0 in
  List.for_all
    (fun (_, delta) ->
      current := !current + delta;
      !current <= machine.Cluster.Machine.nodes)
    events

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
          let result =
            Sim.Engine.run ~machine ~r_star:Sim.Engine.Actual ~policy trace
          in
          outcomes_ok n result && never_oversubscribed result)
        (all_policies ()))

let prop_estimators_sound =
  QCheck.Test.make ~name:"all estimators: complete and causal" ~count:15
    QCheck.int
    (fun seed ->
      let n = 30 in
      let trace = Helpers.mini_trace ~seed:(seed + 100) ~n ~capacity:16 () in
      List.for_all
        (fun r_star ->
          let result =
            Sim.Engine.run ~machine ~r_star ~policy:Sched.Backfill.lxf trace
          in
          outcomes_ok n result && never_oversubscribed result)
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

(* Nodes are held for exactly T.  An outcome records only its start,
   so the engine's departures are checked against the schedule it
   returns: every [Outcome.finish] is a reported decision instant, and
   each report's running jobs and busy nodes are those of the outcomes
   whose [start, finish) holds [now]. *)
let prop_nodes_held_for_runtime =
  QCheck.Test.make ~name:"nodes held for exactly T" ~count:10 QCheck.int
    (fun seed ->
      List.for_all
        (fun jitter ->
          let trace = Helpers.grid_trace ~jitter ~seed:(seed + 300) () in
          List.for_all
            (fun policy ->
              let reports = ref [] in
              let result =
                Sim.Engine.run ~machine
                  ~observe:(fun d -> reports := d :: !reports)
                  ~r_star:Sim.Engine.Actual ~policy trace
              in
              let reported t =
                List.exists
                  (fun (d : Sim.Engine.decision) -> Float.equal d.now t)
                  !reports
              in
              let rebuilt (d : Sim.Engine.decision) =
                let held =
                  List.filter
                    (fun (o : Metrics.Outcome.t) ->
                      o.start <= d.now && d.now < Metrics.Outcome.finish o)
                    result.Sim.Engine.outcomes
                in
                d.running = List.length held
                && d.busy
                   = List.fold_left
                       (fun acc (o : Metrics.Outcome.t) ->
                         acc + o.job.Workload.Job.nodes)
                       0 held
              in
              List.for_all
                (fun o -> reported (Metrics.Outcome.finish o))
                result.Sim.Engine.outcomes
              && List.for_all rebuilt !reports)
            (all_policies ()))
        [ false; true ])

let suite =
  [
    Helpers.qcheck prop_all_policies_sound;
    Helpers.qcheck prop_estimators_sound;
    Helpers.qcheck prop_tie_heavy_schedules_validate;
    Helpers.qcheck prop_nodes_held_for_runtime;
  ]
