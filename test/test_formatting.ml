(* Smoke tests for the pretty-printers and name formats: these strings
   appear in every report, so lock their shape. *)

let asprintf = Format.asprintf

let test_aggregate_pp () =
  let a =
    Metrics.Aggregate.compute
      [ Metrics.Outcome.v ~job:(Helpers.job ()) ~start:3600.0 ]
  in
  let s = asprintf "%a" Metrics.Aggregate.pp a in
  Alcotest.(check bool) "n shown" true (Helpers.contains s "n=1");
  Alcotest.(check bool) "avg wait shown" true
    (Helpers.contains s "avg_wait=1.00h")

let test_month_profile_pp () =
  let s =
    asprintf "%a" Workload.Month_profile.pp (Workload.Month_profile.find "7/03")
  in
  Alcotest.(check bool) "label" true (Helpers.contains s "7/03");
  Alcotest.(check bool) "load" true (Helpers.contains s "89%")

let test_pp_duration_negative () =
  Alcotest.(check string) "negative duration" "-30.0m"
    (asprintf "%a" Simcore.Units.pp_duration (-1800.0))

let test_backfill_reservation_name () =
  let p = Sched.Backfill.policy ~reservations:4 Sched.Priority.fcfs in
  Alcotest.(check string) "explicit reservation count"
    "FCFS-backfill/res=4" p.Sched.Policy.name

let test_lds0_policy_name () =
  let config =
    Core.Search_policy.v ~algorithm:Core.Search.Lds_original
      ~heuristic:Sched.Priority.lxf ~bound:Core.Bound.dynamic ~budget:2000 ()
  in
  Alcotest.(check string) "lds0 label" "LDS0/lxf/dynB(L=2K)"
    (Helpers.search_policy_name config)

let test_trace_concat_stats () =
  let t =
    Workload.Trace.of_array ~measure_start:0.0 ~measure_end:86400.0
      [| Helpers.job () |]
  in
  let s = Workload.Trace.concat_stats t in
  Alcotest.(check bool) "job counts" true (Helpers.contains s "1 jobs");
  Alcotest.(check bool) "window in days" true (Helpers.contains s "1.0d")

let suite =
  [
    Alcotest.test_case "aggregate pp" `Quick test_aggregate_pp;
    Alcotest.test_case "month profile pp" `Quick test_month_profile_pp;
    Alcotest.test_case "negative duration" `Quick test_pp_duration_negative;
    Alcotest.test_case "backfill reservation name" `Quick
      test_backfill_reservation_name;
    Alcotest.test_case "lds0 policy name" `Quick test_lds0_policy_name;
    Alcotest.test_case "trace concat stats" `Quick test_trace_concat_stats;
  ]
