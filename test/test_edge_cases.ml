(* Edge-case tests across modules: boundary conditions the main suites
   do not exercise. *)

open Cluster

(* --- Profile boundaries --- *)

let check_segments msg expected p =
  Alcotest.(check (list (pair (float 1e-12) int))) msg expected
    (Profile.segments p)

let test_profile_release_exactly_now () =
  (* a release at exactly [now] is already free *)
  let p = Profile.of_running ~now:100.0 ~capacity:8 [ (100.0, 4) ] in
  check_segments "released" [ (100.0, 8) ] p

let test_profile_reserve_at_boundary_merges () =
  let p = Profile.create ~now:0.0 ~capacity:8 in
  Profile.reserve p ~at:0.0 ~nodes:4 ~duration:10.0;
  Profile.reserve p ~at:10.0 ~nodes:4 ~duration:10.0;
  (* same free count in both intervals: segments must merge *)
  Alcotest.(check bool) "invariant (merged)" true (Profile.invariant p);
  Alcotest.(check int) "two segments" 2 (Profile.segment_count p);
  check_segments "free during, after" [ (0.0, 4); (20.0, 8) ] p

let test_profile_locate_before_start () =
  let p = Profile.create ~now:100.0 ~capacity:8 in
  Alcotest.check_raises "before start"
    (Invalid_argument "Profile.locate: time before profile start") (fun () ->
      Profile.reserve p ~at:50.0 ~nodes:1 ~duration:10.0)

let test_profile_full_machine_reservation () =
  let p = Profile.create ~now:0.0 ~capacity:8 in
  Profile.reserve p ~at:0.0 ~nodes:8 ~duration:100.0;
  check_segments "zero free" [ (0.0, 0); (100.0, 8) ] p;
  Alcotest.(check (float 1e-9)) "next start after release" 100.0
    (Helpers.placed p ~nodes:1 ~duration:10.0)

let test_profile_adjacent_holes () =
  (* free: 8 in [0,10), 2 in [10,20), 8 in [20,30), 2 in [30,40), 8 after.
     A 4-node job of duration 10 fits first at t=20?  No: [20,30) only.
     duration 15 -> must wait until 40. *)
  let p = Profile.create ~now:0.0 ~capacity:8 in
  Profile.reserve p ~at:10.0 ~nodes:6 ~duration:10.0;
  Profile.reserve p ~at:30.0 ~nodes:6 ~duration:10.0;
  Alcotest.(check (float 1e-9)) "short fits in first window" 0.0
    (Helpers.placed p ~nodes:4 ~duration:10.0);
  Alcotest.(check (float 1e-9)) "long must pass both holes" 40.0
    (Helpers.placed p ~nodes:4 ~duration:15.0);
  Alcotest.(check (float 1e-9)) "narrow job threads through the holes" 0.0
    (Helpers.placed p ~nodes:2 ~duration:15.0)

(* --- Trace --- *)

let test_empty_trace () =
  let t = Workload.Trace.v [] in
  Alcotest.(check int) "length" 0 (Workload.Trace.length t);
  Alcotest.(check (float 1e-9)) "no load" 0.0
    (Workload.Mix_report.of_trace t ~capacity:8).load

let test_empty_trace_simulation () =
  let t = Workload.Trace.v [] in
  let result =
    Sim.Engine.run ~machine:(Machine.v ~nodes:8) ~r_star:Sim.Engine.Actual
      ~policy:Sched.Backfill.fcfs t
  in
  Alcotest.(check int) "no outcomes" 0 (List.length result.Sim.Engine.outcomes);
  Alcotest.(check int) "no decisions" 0 result.Sim.Engine.decisions

let test_scale_load_invalid () =
  let t = Workload.Trace.v [] in
  Alcotest.check_raises "no load" (Invalid_argument "Trace.scale_load: trace has no load")
    (fun () -> ignore (Workload.Trace.scale_load t ~capacity:8 ~target:0.9))

(* --- single-job and same-instant scenarios --- *)

let test_single_job_whole_machine () =
  let job = Helpers.job ~id:0 ~nodes:8 ~runtime:100.0 () in
  let t = Workload.Trace.v [ job ] in
  List.iter
    (fun policy ->
      let result =
        Sim.Engine.run ~machine:(Machine.v ~nodes:8) ~r_star:Sim.Engine.Actual
          ~policy t
      in
      match result.Sim.Engine.outcomes with
      | [ o ] ->
          Alcotest.(check (float 1e-9))
            (policy.Sched.Policy.name ^ " starts immediately")
            0.0 (Metrics.Outcome.wait o)
      | _ -> Alcotest.fail "expected one outcome")
    [ Sched.Backfill.fcfs; Sched.Backfill.lxf; Sched.Backfill.run_now;
      fst (Core.Search_policy.policy (Core.Search_policy.dds_lxf_dynb ~budget:10)) ]

let test_simultaneous_arrivals () =
  (* several jobs submitted at the same instant: one decision point *)
  let jobs = List.init 4 (fun id -> Helpers.job ~id ~nodes:2 ~submit:5.0 ()) in
  let t = Workload.Trace.v jobs in
  let result =
    Sim.Engine.run ~machine:(Machine.v ~nodes:8) ~r_star:Sim.Engine.Actual
      ~policy:Sched.Backfill.fcfs t
  in
  List.iter
    (fun (o : Metrics.Outcome.t) ->
      Alcotest.(check (float 1e-9)) "all start together" 5.0 o.start)
    result.Sim.Engine.outcomes;
  (* the four arrivals drain into a single decision; the four identical
     finishes batch into one more *)
  Alcotest.(check int) "decisions batched" 2 result.Sim.Engine.decisions

(* --- Estimate grid --- *)

let test_estimate_grid_is_ascending_and_capped () =
  (* the round values [round_up] yields, probed every 5 minutes up to
     twice the limit, never fall, never pass the limit, and end at it *)
  let limit = Simcore.Units.hours 12.0 in
  let probes = List.init 289 (fun i -> Simcore.Units.minutes (5.0 *. float_of_int i)) in
  let g = List.map (Workload.Estimate.round_up ~limit) probes in
  List.iteri
    (fun i v ->
      Alcotest.(check bool) "within limit" true (v <= limit);
      if i > 0 then
        Alcotest.(check bool) "ascending" true (v >= List.nth g (i - 1)))
    g;
  Alcotest.(check (float 1e-9)) "last = limit" limit (List.nth g 288)

(* --- Mix_report / Panels formatting --- *)

let test_mix_report_pp_smoke () =
  let t =
    Workload.Trace.v
      [ Helpers.job ~id:0 (); Helpers.job ~id:1 ~submit:1.0 ~nodes:64 () ]
  in
  let mix = Workload.Mix_report.of_trace ~capacity:128 t in
  let s3 =
    Format.asprintf "%a" (fun f -> Workload.Mix_report.pp_table3_row f ~label:"t") mix
  in
  let s4 =
    Format.asprintf "%a" (fun f -> Workload.Mix_report.pp_table4_row f ~label:"t") mix
  in
  Alcotest.(check bool) "table3 mentions #jobs" true (Helpers.contains s3 "#jobs");
  Alcotest.(check bool) "table4 mentions T<=1h" true (Helpers.contains s4 "T<=1h")

(* --- Objective tolerance at scale --- *)

let test_objective_large_scale_tiebreak () =
  (* two schedules with hours of identical excess: slowdown decides *)
  let base = { Core.Objective.excess = 3.6e6; secondary_sum = 0.0; jobs = 0 } in
  let a = { base with Core.Objective.secondary_sum = 100.0; jobs = 10 } in
  let b = { base with Core.Objective.secondary_sum = 101.0; jobs = 10 } in
  Alcotest.(check bool) "tie broken by slowdown" true
    (Core.Objective.is_better ~candidate:a ~incumbent:b)

let suite =
  [
    Alcotest.test_case "release at now" `Quick test_profile_release_exactly_now;
    Alcotest.test_case "boundary reserves merge" `Quick
      test_profile_reserve_at_boundary_merges;
    Alcotest.test_case "locate before start" `Quick
      test_profile_locate_before_start;
    Alcotest.test_case "full-machine reservation" `Quick
      test_profile_full_machine_reservation;
    Alcotest.test_case "window gaps" `Quick test_profile_adjacent_holes;
    Alcotest.test_case "empty trace" `Quick test_empty_trace;
    Alcotest.test_case "empty trace simulation" `Quick
      test_empty_trace_simulation;
    Alcotest.test_case "scale_load invalid" `Quick test_scale_load_invalid;
    Alcotest.test_case "single job whole machine" `Quick
      test_single_job_whole_machine;
    Alcotest.test_case "simultaneous arrivals" `Quick test_simultaneous_arrivals;
    Alcotest.test_case "estimate grid" `Quick
      test_estimate_grid_is_ascending_and_capped;
    Alcotest.test_case "mix report pp" `Quick test_mix_report_pp_smoke;
    Alcotest.test_case "objective tie-break at scale" `Quick
      test_objective_large_scale_tiebreak;
  ]
