(* Tests for the parametric workload model. *)

open Workload

let test_deterministic () =
  let a = Model.generate ~seed:4 ~days:3.0 in
  let b = Model.generate ~seed:4 ~days:3.0 in
  Alcotest.(check int) "same size" (Trace.length a) (Trace.length b);
  Array.iteri
    (fun i (ja : Job.t) ->
      let jb = (Trace.jobs b).(i) in
      Alcotest.(check (float 1e-9)) "submit" ja.submit jb.Job.submit;
      Alcotest.(check int) "nodes" ja.nodes jb.Job.nodes)
    (Trace.jobs a)

let test_job_validity () =
  let t = Model.generate ~seed:5 ~days:5.0 in
  Alcotest.(check bool) "non-empty" true (Trace.length t > 200);
  Array.iter
    (fun (j : Job.t) ->
      Alcotest.(check bool) "nodes within machine" true
        (j.nodes >= 1 && j.nodes <= Month_profile.capacity);
      Alcotest.(check bool) "runtime bounded" true
        (j.runtime >= 10.0 && j.runtime <= Simcore.Units.hours 12.0);
      Alcotest.(check bool) "requested >= runtime" true
        (j.requested >= j.runtime);
      Alcotest.(check bool) "has a user" true (j.user >= 1))
    (Trace.jobs t)

let test_serial_and_power2_fractions () =
  let t = Model.generate ~seed:6 ~days:20.0 in
  let jobs = Trace.jobs t in
  let total = float_of_int (Array.length jobs) in
  let serial =
    Array.fold_left (fun acc (j : Job.t) -> if j.nodes = 1 then acc + 1 else acc) 0 jobs
  in
  let is_pow2 n = n land (n - 1) = 0 in
  let parallel_pow2 =
    Array.fold_left
      (fun acc (j : Job.t) ->
        if j.nodes > 1 && is_pow2 j.nodes then acc + 1 else acc)
      0 jobs
  in
  let parallel =
    Array.fold_left
      (fun acc (j : Job.t) -> if j.nodes > 1 then acc + 1 else acc)
      0 jobs
  in
  let serial_frac = float_of_int serial /. total in
  Alcotest.(check bool)
    (Printf.sprintf "serial fraction ~0.25 (got %.2f)" serial_frac)
    true
    (serial_frac > 0.18 && serial_frac < 0.32);
  let pow2_frac = float_of_int parallel_pow2 /. float_of_int parallel in
  Alcotest.(check bool)
    (Printf.sprintf "power-of-2 fraction ~0.75 (got %.2f)" pow2_frac)
    true
    (pow2_frac > 0.65 && pow2_frac < 0.85)

let test_measurement_window () =
  let t = Model.generate ~seed:7 ~days:4.0 in
  Alcotest.(check (float 1.0)) "one-day warmup" Simcore.Units.day
    (Trace.measure_start t);
  Alcotest.(check (float 1.0)) "window span" (Simcore.Units.days 4.0)
    (Trace.measure_end t -. Trace.measure_start t)

let test_invalid_days () =
  Alcotest.check_raises "days <= 0"
    (Invalid_argument "Model.generate: days <= 0") (fun () ->
      ignore (Model.generate ~seed:1 ~days:0.0))

let test_simulatable () =
  let t = Model.generate ~seed:8 ~days:2.0 in
  let run =
    Sim.Run.simulate ~r_star:Sim.Engine.Actual ~policy:Sched.Backfill.fcfs t
  in
  Alcotest.(check bool) "jobs measured" true
    (run.Sim.Run.aggregate.Metrics.Aggregate.n_jobs > 0)

let suite =
  [
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "job validity" `Quick test_job_validity;
    Alcotest.test_case "size fractions" `Quick test_serial_and_power2_fractions;
    Alcotest.test_case "measurement window" `Quick test_measurement_window;
    Alcotest.test_case "invalid days" `Quick test_invalid_days;
    Alcotest.test_case "simulatable" `Quick test_simulatable;
  ]
