(* Tests for the multi-queue scheduler variant and the on-line runtime
   predictor. *)

open Sched

let r_star (j : Workload.Job.t) = j.runtime

let context ?(now = 0.0) ?(capacity = 16) ~waiting ~running () =
  let machine = Cluster.Machine.v ~nodes:capacity in
  let rs = Cluster.Running_set.create ~machine in
  List.iter
    (fun (id, nodes, start, runtime) ->
      let job =
        Helpers.job ~id ~nodes ~runtime ~submit:(Float.max 0.0 start) ()
      in
      Cluster.Running_set.add rs
        {
          Cluster.Running_set.job;
          start;
          finish = start +. runtime;
          est_finish = start +. runtime;
        })
    running;
  { Policy.now; waiting; running = rs; r_star }

let ids = List.map (fun (j : Workload.Job.t) -> j.id)

(* --- Multi-queue --- *)

let test_queue_rank () =
  (* an older job of runtime [old_r] and a newer one of [new_r] compete
     for 8 free nodes: the older starts iff its queue is no later *)
  let first old_r new_r =
    let older = Helpers.job ~id:0 ~submit:0.0 ~nodes:8 ~runtime:old_r () in
    let newer = Helpers.job ~id:1 ~submit:100.0 ~nodes:8 ~runtime:new_r () in
    let ctx =
      context ~now:200.0 ~waiting:[ older; newer ]
        ~running:[ (99, 8, 0.0, 100000.0) ] ()
    in
    ids (Multi_queue.policy.Policy.decide ctx)
  in
  Alcotest.(check (list int)) "short: same queue, FCFS" [ 0 ] (first 600.0 60.0);
  Alcotest.(check (list int)) "boundary inclusive" [ 0 ] (first 3600.0 60.0);
  Alcotest.(check (list int)) "just past it: medium" [ 1 ] (first 3601.0 60.0);
  Alcotest.(check (list int)) "medium before long" [ 1 ]
    (first 86400.0 7200.0);
  Alcotest.(check (list int)) "5 h is still medium" [ 0 ]
    (first 18000.0 7200.0)

let test_multi_queue_prefers_short_queue () =
  (* an old long job and a fresh short job compete for 8 free nodes:
     the short queue wins regardless of arrival order *)
  let long_job = Helpers.job ~id:0 ~submit:0.0 ~nodes:8 ~runtime:36000.0 () in
  let short_job = Helpers.job ~id:1 ~submit:100.0 ~nodes:8 ~runtime:600.0 () in
  let ctx =
    context ~now:200.0 ~waiting:[ long_job; short_job ]
      ~running:[ (99, 8, 0.0, 100000.0) ] ()
  in
  let started = Multi_queue.policy.Policy.decide ctx in
  Alcotest.(check (list int)) "short queue first" [ 1 ] (ids started)

let test_multi_queue_name () =
  Alcotest.(check string) "name shows queue count"
    "multi-queue-backfill(3 queues)"
    Multi_queue.policy.Policy.name

(* --- engine-level sanity for the variants and the predictor --- *)

let machine16 = Cluster.Machine.v ~nodes:16

let test_variants_complete_all_jobs () =
  let trace = Helpers.mini_trace ~seed:21 ~n:50 () in
  let result =
    Sim.Engine.run ~machine:machine16 ~r_star:Sim.Engine.Actual
      ~policy:Multi_queue.policy trace
  in
  Alcotest.(check int) "multi-queue completes all jobs" 50
    (List.length result.Sim.Engine.outcomes)

let test_predictor_runs_and_learns () =
  let trace = Helpers.mini_trace ~seed:22 ~n:60 () in
  let result =
    Sim.Engine.run ~machine:machine16 ~r_star:Sim.Engine.Predicted
      ~policy:Backfill.lxf trace
  in
  Alcotest.(check int) "all jobs complete" 60
    (List.length result.Sim.Engine.outcomes)

let test_predictor_differs_from_requested () =
  let trace = Helpers.mini_trace ~seed:23 ~n:80 () in
  let starts r_star =
    let result =
      Sim.Engine.run ~machine:machine16 ~r_star ~policy:Backfill.lxf trace
    in
    List.map (fun (o : Metrics.Outcome.t) -> o.start) result.Sim.Engine.outcomes
  in
  Alcotest.(check bool) "prediction changes decisions" true
    (starts Sim.Engine.Predicted <> starts Sim.Engine.Requested)

let test_rstar_names () =
  Alcotest.(check string) "T" "R*=T" (Sim.Engine.r_star_name Sim.Engine.Actual);
  Alcotest.(check string) "R" "R*=R"
    (Sim.Engine.r_star_name Sim.Engine.Requested);
  Alcotest.(check string) "pred" "R*=pred"
    (Sim.Engine.r_star_name Sim.Engine.Predicted)

let suite =
  [
    Alcotest.test_case "queue rank" `Quick test_queue_rank;
    Alcotest.test_case "multi-queue prefers short queue" `Quick
      test_multi_queue_prefers_short_queue;
    Alcotest.test_case "multi-queue name" `Quick test_multi_queue_name;
    Alcotest.test_case "variants complete all jobs" `Quick
      test_variants_complete_all_jobs;
    Alcotest.test_case "predictor completes workload" `Quick
      test_predictor_runs_and_learns;
    Alcotest.test_case "predictor changes decisions" `Quick
      test_predictor_differs_from_requested;
    Alcotest.test_case "r_star names" `Quick test_rstar_names;
  ]
