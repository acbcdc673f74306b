(* Tests for the event-driven simulation engine and Run wrapper. *)

let machine16 = Cluster.Machine.v ~nodes:16

let simulate ?(machine = machine16) ?(r_star = Sim.Engine.Actual) ~policy trace =
  Sim.Engine.run ~machine ~r_star ~policy trace

let test_every_job_runs_once () =
  let trace = Helpers.mini_trace ~seed:1 () in
  let result = simulate ~policy:Sched.Backfill.fcfs trace in
  let ids =
    List.sort Int.compare
      (List.map
         (fun (o : Metrics.Outcome.t) -> o.job.Workload.Job.id)
         result.Sim.Engine.outcomes)
  in
  Alcotest.(check (list int)) "all jobs completed exactly once"
    (List.init (Workload.Trace.length trace) Fun.id)
    ids

let test_no_oversubscription () =
  (* replay outcomes and verify instantaneous node usage never exceeds
     the machine *)
  let trace = Helpers.mini_trace ~seed:2 ~n:60 () in
  List.iter
    (fun policy ->
      let result = simulate ~policy trace in
      let events =
        List.concat_map
          (fun (o : Metrics.Outcome.t) ->
            [ (o.start, o.job.Workload.Job.nodes);
              (o.finish, -o.job.Workload.Job.nodes) ])
          result.Sim.Engine.outcomes
        |> List.sort (fun (ta, da) (tb, db) ->
               let c = Float.compare ta tb in
               if c <> 0 then c else Int.compare da db)
      in
      let peak = ref 0 and current = ref 0 in
      List.iter
        (fun (_, delta) ->
          current := !current + delta;
          peak := max !peak !current)
        events;
      Alcotest.(check bool)
        (policy.Sched.Policy.name ^ " never oversubscribes")
        true (!peak <= 16))
    [ Sched.Backfill.fcfs; Sched.Backfill.lxf; Sched.Policy.run_now;
      fst (Core.Search_policy.policy (Core.Search_policy.dds_lxf_dynb ~budget:200)) ]

let test_jobs_start_after_submit () =
  let trace = Helpers.mini_trace ~seed:3 () in
  let result = simulate ~policy:Sched.Backfill.lxf trace in
  List.iter
    (fun (o : Metrics.Outcome.t) ->
      Alcotest.(check bool) "start >= submit" true
        (o.start >= o.job.Workload.Job.submit);
      Alcotest.(check (float 1e-6)) "runs for min(T,R)"
        (Float.min o.job.Workload.Job.runtime o.job.Workload.Job.requested)
        (o.finish -. o.start))
    result.Sim.Engine.outcomes

let test_requested_runtime_kills () =
  (* a job whose requested limit is below its runtime is cut short *)
  let job = Workload.Job.v ~id:0 ~submit:0.0 ~nodes:1 ~runtime:100.0
      ~requested:100.0
  in
  (* simulate via SWF-style trace where requested < runtime is possible:
     construct directly through Engine with min() semantics *)
  let trace = Workload.Trace.v [ job ] in
  let result = simulate ~policy:Sched.Backfill.fcfs trace in
  match result.Sim.Engine.outcomes with
  | [ o ] -> Alcotest.(check (float 1e-9)) "runs full time" 100.0
               (o.Metrics.Outcome.finish -. o.Metrics.Outcome.start)
  | _ -> Alcotest.fail "expected one outcome"

let test_fcfs_backfill_vs_run_now_head_wait () =
  (* under FCFS-backfill the queue head's start is never later than the
     no-reservation greedy policy would allow... the head gets the
     earliest possible start; sanity: simulation completes and waits
     are finite *)
  let trace = Helpers.mini_trace ~seed:4 ~n:80 () in
  let result = simulate ~policy:Sched.Backfill.fcfs trace in
  Alcotest.(check int) "all outcomes" 80 (List.length result.Sim.Engine.outcomes)

let test_decisions_counted () =
  let trace = Helpers.mini_trace ~seed:5 ~n:10 () in
  let result = simulate ~policy:Sched.Backfill.fcfs trace in
  (* at least one decision per arrival and per finish *)
  Alcotest.(check bool) "decision count plausible" true
    (result.Sim.Engine.decisions >= 10
    && result.Sim.Engine.decisions <= 2 * 10)

let test_too_wide_job_rejected () =
  let job = Helpers.job ~nodes:128 () in
  let trace = Workload.Trace.v [ job ] in
  Alcotest.check_raises "job wider than machine"
    (Invalid_argument "Engine.run: job 0 wider than machine") (fun () ->
      ignore (simulate ~policy:Sched.Backfill.fcfs trace))

let test_windowed_queue_average () =
  let samples =
    [ { Sim.Engine.time = 0.0; length = 2 };
      { Sim.Engine.time = 10.0; length = 4 };
      { Sim.Engine.time = 20.0; length = 0 } ]
  in
  Alcotest.(check (float 1e-9)) "full window" 3.0
    (Sim.Engine.windowed_queue_average samples ~from_:0.0 ~upto:20.0);
  Alcotest.(check (float 1e-9)) "sub window" 4.0
    (Sim.Engine.windowed_queue_average samples ~from_:10.0 ~upto:20.0);
  Alcotest.(check (float 1e-9)) "tail extends last value" 0.0
    (Sim.Engine.windowed_queue_average samples ~from_:20.0 ~upto:30.0);
  Alcotest.(check (float 1e-9)) "straddling window" 2.0
    (Sim.Engine.windowed_queue_average samples ~from_:15.0 ~upto:25.0);
  Alcotest.(check (float 1e-9)) "empty" 0.0
    (Sim.Engine.windowed_queue_average [] ~from_:0.0 ~upto:10.0)

let test_run_wrapper_windows () =
  let trace = Helpers.mini_trace ~seed:6 ~n:40 ~horizon:7200.0 () in
  let jobs = Workload.Trace.jobs trace in
  let windowed =
    Workload.Trace.v (Array.to_list jobs) ~measure_start:1000.0
      ~measure_end:5000.0
  in
  let run =
    Sim.Run.simulate ~machine:machine16 ~r_star:Sim.Engine.Actual
      ~policy:Sched.Backfill.fcfs windowed
  in
  let expected =
    Array.to_list jobs
    |> List.filter (fun (j : Workload.Job.t) ->
           j.submit >= 1000.0 && j.submit < 5000.0)
    |> List.length
  in
  Alcotest.(check int) "only in-window jobs measured" expected
    (List.length run.Sim.Run.measured);
  Alcotest.(check int) "aggregate over measured" expected
    run.Sim.Run.aggregate.Metrics.Aggregate.n_jobs

let test_utilization_bounds () =
  let trace = Helpers.mini_trace ~seed:9 ~n:50 () in
  let run =
    Sim.Run.simulate ~machine:machine16 ~r_star:Sim.Engine.Actual
      ~policy:Sched.Backfill.fcfs trace
  in
  Alcotest.(check bool) "utilization in [0,1]" true
    (run.Sim.Run.utilization >= 0.0 && run.Sim.Run.utilization <= 1.0);
  Alcotest.(check bool) "some work happened" true
    (run.Sim.Run.utilization > 0.0)

let test_utilization_exact () =
  (* one 8-node, 50s job on a 16-node machine over a 100s window:
     utilization = 8*50 / (16*100) = 0.25 *)
  let job = Helpers.job ~id:0 ~nodes:8 ~runtime:50.0 () in
  let trace =
    Workload.Trace.v [ job ] ~measure_start:0.0 ~measure_end:100.0
  in
  let run =
    Sim.Run.simulate ~machine:machine16 ~r_star:Sim.Engine.Actual
      ~policy:Sched.Backfill.fcfs trace
  in
  Alcotest.(check (float 1e-9)) "exact utilization" 0.25
    run.Sim.Run.utilization

let test_deterministic_simulation () =
  let trace = Helpers.mini_trace ~seed:7 () in
  let a = simulate ~policy:Sched.Backfill.lxf trace in
  let b = simulate ~policy:Sched.Backfill.lxf trace in
  List.iter2
    (fun (x : Metrics.Outcome.t) (y : Metrics.Outcome.t) ->
      Alcotest.(check (float 1e-12)) "same starts" x.start y.start)
    a.Sim.Engine.outcomes b.Sim.Engine.outcomes

let test_rstar_requested_changes_schedule () =
  (* with heavily overestimated requests, LXF-backfill decisions change *)
  let trace = Helpers.mini_trace ~seed:8 ~n:60 () in
  let actual = simulate ~r_star:Sim.Engine.Actual ~policy:Sched.Backfill.lxf trace in
  let requested =
    simulate ~r_star:Sim.Engine.Requested ~policy:Sched.Backfill.lxf trace
  in
  let starts r =
    List.map (fun (o : Metrics.Outcome.t) -> o.start) r.Sim.Engine.outcomes
  in
  Alcotest.(check bool) "schedules differ" true
    (starts actual <> starts requested)

(* The [observe] hook gets one report per decision, after its starts:
   the report's post-start state must agree with the finished
   schedule, and observing must not change that schedule. *)
let test_observe_each_decision () =
  let trace = Helpers.mini_trace ~seed:9 ~n:60 () in
  let n_jobs = Workload.Trace.length trace in
  List.iter
    (fun policy ->
      let name = policy.Sched.Policy.name in
      let seen = ref [] in
      let result =
        Sim.Engine.run ~machine:machine16
          ~observe:(fun d -> seen := d :: !seen)
          ~r_star:Sim.Engine.Actual ~policy trace
      in
      let ds = List.rev !seen in
      let plain = simulate ~policy trace in
      Alcotest.(check (list (float 0.0)))
        (name ^ ": observing leaves the schedule alone")
        (List.map (fun (o : Metrics.Outcome.t) -> o.start) plain.outcomes)
        (List.map (fun (o : Metrics.Outcome.t) -> o.start) result.outcomes);
      Alcotest.(check int) (name ^ ": one report per decision")
        result.decisions (List.length ds);
      Alcotest.(check int) (name ^ ": every job started once") n_jobs
        (List.fold_left
           (fun acc (d : Sim.Engine.decision) -> acc + List.length d.started)
           0 ds);
      let last_now = ref neg_infinity in
      List.iter
        (fun (d : Sim.Engine.decision) ->
          Alcotest.(check int) (name ^ ": seen = queue + started")
            d.seen (d.queue + List.length d.started);
          Alcotest.(check bool) (name ^ ": time non-decreasing") true
            (d.now >= !last_now);
          last_now := d.now;
          (* post-start state, rebuilt from the finished schedule *)
          let waiting, running =
            List.partition
              (fun (o : Metrics.Outcome.t) -> o.start > d.now)
              (List.filter
                 (fun (o : Metrics.Outcome.t) ->
                   o.job.submit <= d.now && o.finish > d.now)
                 result.outcomes)
          in
          let nodes l =
            List.fold_left
              (fun acc (o : Metrics.Outcome.t) -> acc + o.job.nodes)
              0 l
          in
          Alcotest.(check int) (name ^ ": queue") (List.length waiting)
            d.queue;
          Alcotest.(check int) (name ^ ": demand") (nodes waiting) d.demand;
          Alcotest.(check (float 1e-9)) (name ^ ": max wait")
            (List.fold_left
               (fun acc (o : Metrics.Outcome.t) ->
                 Float.max acc (d.now -. o.job.submit))
               0.0 waiting)
            d.max_wait;
          Alcotest.(check int) (name ^ ": running") (List.length running)
            d.running;
          Alcotest.(check int) (name ^ ": busy") (nodes running) d.busy)
        ds;
      match List.rev ds with
      | [] -> Alcotest.fail "no decision observed"
      | last :: _ ->
          Alcotest.(check (pair int int)) (name ^ ": ends drained") (0, 0)
            (last.queue, last.running))
    [
      Sched.Backfill.fcfs;
      fst
        (Core.Search_policy.policy
           (Core.Search_policy.dds_lxf_dynb ~budget:200));
    ]

let suite =
  [
    Alcotest.test_case "every job runs once" `Quick test_every_job_runs_once;
    Alcotest.test_case "no oversubscription" `Quick test_no_oversubscription;
    Alcotest.test_case "starts after submit; runs min(T,R)" `Quick
      test_jobs_start_after_submit;
    Alcotest.test_case "requested runtime respected" `Quick
      test_requested_runtime_kills;
    Alcotest.test_case "fcfs completes a backlog" `Quick
      test_fcfs_backfill_vs_run_now_head_wait;
    Alcotest.test_case "decisions counted" `Quick test_decisions_counted;
    Alcotest.test_case "too-wide job rejected" `Quick test_too_wide_job_rejected;
    Alcotest.test_case "windowed queue average" `Quick
      test_windowed_queue_average;
    Alcotest.test_case "run wrapper windows" `Quick test_run_wrapper_windows;
    Alcotest.test_case "utilization bounds" `Quick test_utilization_bounds;
    Alcotest.test_case "utilization exact" `Quick test_utilization_exact;
    Alcotest.test_case "deterministic simulation" `Quick
      test_deterministic_simulation;
    Alcotest.test_case "R*=R changes schedule" `Quick
      test_rstar_requested_changes_schedule;
    Alcotest.test_case "engine observes each decision once, after its starts"
      `Quick test_observe_each_decision;
  ]
