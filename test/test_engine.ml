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
  (* the schedule's node usage, checked against the engine's reports,
     never exceeds the machine *)
  let trace = Helpers.mini_trace ~seed:2 ~n:60 () in
  List.iter
    (fun policy ->
      let result, reports =
        Helpers.run_observed ~machine:machine16 ~policy trace
      in
      Alcotest.(check bool)
        (policy.Sched.Policy.name ^ " never oversubscribes")
        true
        (Helpers.held_as_reported ~capacity:16 result reports))
    [ Sched.Backfill.fcfs; Sched.Backfill.lxf; Sched.Backfill.run_now;
      fst (Core.Search_policy.policy (Core.Search_policy.dds_lxf_dynb ~budget:200)) ]

let test_jobs_start_after_submit () =
  let trace = Helpers.mini_trace ~seed:3 () in
  let result, reports =
    Helpers.run_observed ~machine:machine16 ~policy:Sched.Backfill.lxf trace
  in
  List.iter
    (fun (o : Metrics.Outcome.t) ->
      Alcotest.(check bool) "start >= submit" true
        (o.start >= o.job.Workload.Job.submit))
    result.Sim.Engine.outcomes;
  (* T <= R, so min(T,R) = T: the reports show each job's nodes held
     for exactly T *)
  Alcotest.(check bool) "runs for min(T,R)" true
    (Helpers.held_as_reported ~capacity:16 result reports)

let test_requested_runtime_kills () =
  (* a job that uses its whole requested limit runs to it, and one that
     stops short of it departs at its runtime; [Job.v] rejects a
     runtime above the limit *)
  let full =
    Workload.Job.v ~id:0 ~submit:0.0 ~nodes:1 ~runtime:100.0 ~requested:100.0
  and short =
    Workload.Job.v ~id:1 ~submit:0.0 ~nodes:2 ~runtime:50.0 ~requested:100.0
  in
  let _, reports =
    Helpers.run_observed ~machine:machine16 ~policy:Sched.Backfill.fcfs
      (Workload.Trace.v [ full; short ])
  in
  Alcotest.(check (list (triple (float 0.0) int int)))
    "(now, running, busy) of each decision"
    [ (0.0, 2, 3); (50.0, 1, 1); (100.0, 0, 0) ]
    (List.map
       (fun (d : Sim.Engine.decision) -> (d.now, d.running, d.busy))
       reports)

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

let test_non_waiting_start_rejected () =
  (* a policy that starts the queue head twice in one decision *)
  let policy =
    Sched.Policy.make ~name:"double-start" ~decide:(fun ctx ->
        match ctx.Sched.Policy.waiting with j :: _ -> [ j; j ] | [] -> [])
  in
  let trace = Workload.Trace.v [ Helpers.job ~id:3 ~runtime:10.0 () ] in
  Alcotest.check_raises "second start of job 3"
    (Invalid_argument "Engine.run: policy started non-waiting job 3")
    (fun () -> ignore (simulate ~policy trace))

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
    (Sim.Engine.windowed_queue_average [] ~from_:0.0 ~upto:10.0);
  (* decisions after the window add nothing *)
  Alcotest.(check (float 1e-9)) "samples past the window" 3.0
    (Sim.Engine.windowed_queue_average
       [ { Sim.Engine.time = 0.0; length = 2 };
         { Sim.Engine.time = 10.0; length = 4 };
         { Sim.Engine.time = 30.0; length = 0 };
         { Sim.Engine.time = 40.0; length = 0 } ]
       ~from_:0.0 ~upto:20.0)

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
                   o.job.submit <= d.now && Metrics.Outcome.finish o > d.now)
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

(* --- event order: which events one decision point drains --- *)

let machine8 = Cluster.Machine.v ~nodes:8

(* Each decision's report as (now, seen, started ids, running). *)
let decisions_of ?(policy = Sched.Backfill.fcfs) jobs =
  let ds = ref [] in
  let (_ : Sim.Engine.result) =
    Sim.Engine.run ~machine:machine8
      ~observe:(fun (d : Sim.Engine.decision) ->
        ds :=
          ( d.now,
            d.seen,
            List.map (fun (j : Workload.Job.t) -> j.id) d.started,
            d.running )
          :: !ds)
      ~r_star:Sim.Engine.Actual ~policy (Workload.Trace.v jobs)
  in
  List.rev !ds

let decision_t =
  Alcotest.(list (pair (pair (float 0.0) int) (pair (list int) int)))

let check_decisions name expected actual =
  let flat = List.map (fun (now, seen, ids, r) -> ((now, seen), (ids, r))) in
  Alcotest.check decision_t name (flat expected) (flat actual)

(* A full-machine job that runs [0, 100) and a full-machine job
   submitted at [submit]: the second can only start once the first has
   left the machine. *)
let blocker_then submit =
  [
    Helpers.job ~id:0 ~submit:0.0 ~nodes:8 ~runtime:100.0 ();
    Helpers.job ~id:1 ~submit ~nodes:8 ~runtime:50.0 ();
  ]

let test_arrival_at_departure_instant () =
  check_decisions "one decision at t=100: arrival queued, departure applied"
    [ (0.0, 1, [ 0 ], 1); (100.0, 1, [ 1 ], 1); (150.0, 0, [], 0) ]
    (decisions_of (blocker_then 100.0))

let test_arrival_half_ns_after_departure () =
  (* Job 1 takes the nodes job 0 frees at t=100; job 2, arriving 0.5 ns
     later, is a decision of its own and waits there for job 1. *)
  let job id submit runtime = Helpers.job ~id ~submit ~nodes:8 ~runtime () in
  let t = 100.0 +. 0.5e-9 in
  check_decisions "arrival 0.5 ns late is its own decision"
    [
      (0.0, 2, [ 0 ], 1); (100.0, 1, [ 1 ], 1); (t, 1, [], 1);
      (150.0, 1, [ 2 ], 1); (200.0, 0, [], 0);
    ]
    (decisions_of [ job 0 0.0 100.0; job 1 0.0 50.0; job 2 t 50.0 ])

(* The machine frees at t=100 and a full-machine job arrives 0.5 ns
   later: it starts at its own submit, in its own decision.  Had the
   two events shared a decision, the job would have started at 100,
   before its submission, and [Outcome.v] would have aborted the run. *)
let test_late_arrival_starts_at_submit () =
  let t = 100.0 +. 0.5e-9 in
  check_decisions "arrival 0.5 ns late starts in its own decision"
    [
      (0.0, 1, [ 0 ], 1); (100.0, 0, [], 0); (t, 1, [ 1 ], 1);
      (t +. 50.0, 0, [], 0);
    ]
    (decisions_of (blocker_then t));
  let result =
    Sim.Engine.run ~machine:machine8 ~r_star:Sim.Engine.Actual
      ~policy:Sched.Backfill.fcfs
      (Workload.Trace.v (blocker_then t))
  in
  Alcotest.(check (list (pair int (float 0.0))))
    "job 1 starts at its submit" [ (0, 0.0); (1, t) ]
    (List.map
       (fun (o : Metrics.Outcome.t) -> (o.job.Workload.Job.id, o.start))
       result.outcomes)

let test_arrival_two_ns_after_departure () =
  let t = 100.0 +. 2e-9 in
  check_decisions "arrival 2 ns late is its own decision"
    [
      (0.0, 1, [ 0 ], 1); (100.0, 0, [], 0); (t, 1, [ 1 ], 1);
      (t +. 50.0, 0, [], 0);
    ]
    (decisions_of (blocker_then t))

let test_equal_submits_queue_in_id_order () =
  (* A full-machine job holds the queue, so the policy sees the three
     equal-submit arrivals waiting; they are listed out of order. *)
  let queues = ref [] in
  let policy =
    Sched.Policy.make ~name:"recording-fcfs" ~decide:(fun ctx ->
        queues :=
          List.map (fun (j : Workload.Job.t) -> j.id) ctx.Sched.Policy.waiting
          :: !queues;
        Sched.Backfill.fcfs.decide ctx)
  in
  let job id submit nodes = Helpers.job ~id ~submit ~nodes ~runtime:100.0 () in
  let ds =
    decisions_of ~policy
      [ job 0 0.0 8; job 3 10.0 2; job 1 10.0 2; job 2 10.0 2 ]
  in
  Alcotest.(check (list (list int))) "queues seen, in decision order"
    [ [ 0 ]; [ 1; 2; 3 ]; [ 1; 2; 3 ]; [] ]
    (List.rev !queues);
  Alcotest.(check (list int)) "started in queue order at t=100" [ 1; 2; 3 ]
    (match ds with [ _; _; (_, _, ids, _); _ ] -> ids | _ -> [])

let test_departures_after_last_arrival () =
  (* Four 2-node jobs, all at t=0, leaving at 100, 200, 200 and 300:
     the two departures at 200 share one decision. *)
  let job id runtime = Helpers.job ~id ~submit:0.0 ~nodes:2 ~runtime () in
  check_decisions "one decision per departure instant"
    [
      (0.0, 4, [ 0; 1; 2; 3 ], 4); (100.0, 0, [], 3); (200.0, 0, [], 1);
      (300.0, 0, [], 0);
    ]
    (decisions_of [ job 0 100.0; job 1 200.0; job 2 200.0; job 3 300.0 ])

(* --- outcome order --- *)

let test_outcomes_in_start_order () =
  let starts_sorted (r : Sim.Engine.result) =
    let starts = List.map (fun (o : Metrics.Outcome.t) -> o.start) r.outcomes in
    starts = List.stable_sort Float.compare starts
  in
  let trace = Helpers.mini_trace ~seed:10 ~n:60 () in
  List.iter
    (fun policy ->
      Alcotest.(check bool)
        (policy.Sched.Policy.name ^ ": starts non-decreasing")
        true
        (starts_sorted (simulate ~policy trace)))
    [ Sched.Backfill.fcfs; Sched.Backfill.lxf; Sched.Backfill.run_now ];
  (* Job 1 waits for job 0's nodes; job 2, submitted later, backfills
     in front of it and so comes first in the list. *)
  let result =
    Sim.Engine.run ~machine:machine8 ~r_star:Sim.Engine.Actual
      ~policy:Sched.Backfill.fcfs
      (Workload.Trace.v
         [
           Helpers.job ~id:0 ~submit:0.0 ~nodes:6 ~runtime:100.0 ();
           Helpers.job ~id:1 ~submit:1.0 ~nodes:8 ~runtime:100.0 ();
           Helpers.job ~id:2 ~submit:2.0 ~nodes:2 ~runtime:50.0 ();
         ])
  in
  Alcotest.(check (list (pair int (float 0.0))))
    "backfilled job 2 precedes job 1"
    [ (0, 0.0); (2, 2.0); (1, 100.0) ]
    (List.map
       (fun (o : Metrics.Outcome.t) -> (o.job.Workload.Job.id, o.start))
       result.outcomes);
  Alcotest.(check bool) "starts non-decreasing" true (starts_sorted result)

(* The reported average queue length against an independent count: a
   job waits over [submit, start), so the time-weighted queue over the
   window is the sum of those spans' overlaps with it, over its length.
   The window ends well before the last decision. *)
let test_queue_average_is_waiting_count () =
  let trace = Helpers.mini_trace ~seed:11 ~n:60 () in
  let from_ = 1000.0 and upto = 5000.0 in
  let windowed =
    Workload.Trace.v
      (Array.to_list (Workload.Trace.jobs trace))
      ~measure_start:from_ ~measure_end:upto
  in
  List.iter
    (fun make ->
      let policy = make () in
      let outcomes =
        (Sim.Engine.run ~machine:machine16 ~r_star:Sim.Engine.Actual
           ~policy:(make ()) windowed)
          .outcomes
      in
      let waiting =
        List.fold_left
          (fun acc (o : Metrics.Outcome.t) ->
            let submit = o.job.Workload.Job.submit in
            let overlap = Float.min upto o.start -. Float.max from_ submit in
            acc +. Float.max 0.0 overlap)
          0.0 outcomes
      in
      let run =
        Sim.Run.simulate ~machine:machine16 ~r_star:Sim.Engine.Actual ~policy
          windowed
      in
      Alcotest.(check bool)
        (policy.Sched.Policy.name ^ ": decisions after the window")
        true
        (List.exists
           (fun (o : Metrics.Outcome.t) -> o.start > upto)
           outcomes);
      Alcotest.(check (float 1e-9))
        (policy.Sched.Policy.name ^ ": submitted minus started")
        (waiting /. (upto -. from_))
        run.Sim.Run.aggregate.Metrics.Aggregate.avg_queue_length)
    [
      (fun () -> Sched.Backfill.fcfs);
      (fun () ->
        fst
          (Core.Search_policy.policy
             (Core.Search_policy.dds_lxf_dynb ~budget:1000)));
    ]

(* Memory guard: an outcome is a two-field record and its boxed start,
   5 words beyond its job (3 if the start shares a box with the
   submit).  A stored, boxed finish would make it 8. *)
let test_outcome_words () =
  let trace = Helpers.mini_trace ~seed:1 () in
  let result = simulate ~policy:Sched.Backfill.fcfs trace in
  List.iter
    (fun (o : Metrics.Outcome.t) ->
      let words =
        Obj.reachable_words (Obj.repr o) - Obj.reachable_words (Obj.repr o.job)
      in
      Alcotest.(check bool)
        (Printf.sprintf "job %d: %d words beyond its job <= 5" o.job.id words)
        true (words <= 5))
    result.Sim.Engine.outcomes

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
    Alcotest.test_case "arrival at a departure's instant: one decision"
      `Quick test_arrival_at_departure_instant;
    Alcotest.test_case "arrival 0.5 ns after a departure: two decisions"
      `Quick test_arrival_half_ns_after_departure;
    Alcotest.test_case "arrival 2 ns after a departure: two decisions"
      `Quick test_arrival_two_ns_after_departure;
    Alcotest.test_case "late full-machine arrival starts at its submit"
      `Quick test_late_arrival_starts_at_submit;
    Alcotest.test_case "equal submits queue in id order" `Quick
      test_equal_submits_queue_in_id_order;
    Alcotest.test_case "late departures: one decision per instant" `Quick
      test_departures_after_last_arrival;
    Alcotest.test_case "outcomes come in start order" `Quick
      test_outcomes_in_start_order;
    Alcotest.test_case "non-waiting start rejected" `Quick
      test_non_waiting_start_rejected;
    Alcotest.test_case "queue average = submitted minus started" `Quick
      test_queue_average_is_waiting_count;
    Alcotest.test_case "outcome words beyond its job" `Quick
      test_outcome_words;
  ]
