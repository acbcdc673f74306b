(* Tests for arrival-pattern statistics, validating the generators'
   diurnal/weekly modulation. *)

open Workload

let test_counts () =
  (* three jobs at known instants: Monday 01:30, Monday 14:00,
     Saturday 10:00 *)
  let open Simcore.Units in
  let jobs =
    [
      Helpers.job ~id:0 ~submit:(hours 1.5) ();
      Helpers.job ~id:1 ~submit:(hours 14.0) ();
      Helpers.job ~id:2 ~submit:(days 5.0 +. hours 10.0) ();
    ]
  in
  let t =
    Trace.of_array ~measure_start:0.0 ~measure_end:(days 7.0)
      (Array.of_list jobs)
  in
  let stats = Arrival_stats.of_trace t in
  Alcotest.(check int) "total" 3 stats.Arrival_stats.total;
  Alcotest.(check int) "01h bin" 1 stats.Arrival_stats.hourly.(1);
  Alcotest.(check int) "14h bin" 1 stats.Arrival_stats.hourly.(14);
  Alcotest.(check int) "10h bin" 1 stats.Arrival_stats.hourly.(10);
  Alcotest.(check int) "Monday" 2 stats.Arrival_stats.daily.(0);
  Alcotest.(check int) "Saturday" 1 stats.Arrival_stats.daily.(5)

let test_generator_is_diurnal () =
  let profile = Month_profile.find "10/03" in
  let config = { Generator.default_config with scale = 0.5; seed = 12 } in
  let stats = Arrival_stats.of_trace (Generator.month ~config profile) in
  (* afternoon busier than pre-dawn *)
  let afternoon = stats.Arrival_stats.hourly.(14) + stats.Arrival_stats.hourly.(15) in
  let predawn = stats.Arrival_stats.hourly.(3) + stats.Arrival_stats.hourly.(4) in
  Alcotest.(check bool)
    (Printf.sprintf "afternoon (%d) > pre-dawn (%d)" afternoon predawn)
    true
    (afternoon > predawn);
  Alcotest.(check bool) "peak/trough well above flat" true
    (Arrival_stats.peak_to_trough stats > 1.5);
  let ratio = Arrival_stats.weekend_weekday_ratio stats in
  Alcotest.(check bool)
    (Printf.sprintf "weekends quieter (ratio %.2f)" ratio)
    true
    (ratio < 0.85)

let test_pp_smoke () =
  let t =
    Trace.of_array ~measure_start:0.0 ~measure_end:86400.0
      [| Helpers.job () |]
  in
  let out =
    Format.asprintf "%a" Arrival_stats.pp (Arrival_stats.of_trace t)
  in
  Alcotest.(check bool) "mentions hours" true (Helpers.contains out "00:00");
  Alcotest.(check bool) "mentions days" true (Helpers.contains out "Mon")

let suite =
  [
    Alcotest.test_case "bin counts" `Quick test_counts;
    Alcotest.test_case "generator diurnal/weekly" `Quick
      test_generator_is_diurnal;
    Alcotest.test_case "pp smoke" `Quick test_pp_smoke;
  ]
