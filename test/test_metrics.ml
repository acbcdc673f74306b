(* Tests for Metrics: Outcome, Excess, Aggregate, Class_matrix. *)

open Metrics

let outcome ?(id = 0) ?(submit = 0.0) ?(nodes = 1) ?(runtime = 3600.0)
    ?(wait = 0.0) () =
  let job = Helpers.job ~id ~submit ~nodes ~runtime () in
  Outcome.v ~job ~start:(submit +. wait)

let test_outcome_validation () =
  let job = Helpers.job ~submit:100.0 () in
  Alcotest.check_raises "start before submit"
    (Invalid_argument "Outcome.v: started before submission") (fun () ->
      ignore (Outcome.v ~job ~start:50.0));
  (* at 2^53 the spacing of floats is 2, so a 0.5 s runtime is absorbed
     and the run would end where it starts *)
  let big = Float.ldexp 1.0 53 in
  let job = Helpers.job ~submit:big ~runtime:0.5 () in
  Alcotest.check_raises "finish after start"
    (Invalid_argument "Outcome.v: finish <= start") (fun () ->
      ignore (Outcome.v ~job ~start:big))

let test_outcome_measures () =
  let o = outcome ~wait:1800.0 ~runtime:3600.0 () in
  Alcotest.(check (float 1e-9)) "wait" 1800.0 (Outcome.wait o);
  Alcotest.(check (float 1e-9)) "bounded slowdown" 1.5
    (Outcome.bounded_slowdown o)

let test_bounded_slowdown_short_jobs () =
  (* 10-second job waiting 120 s: raw slowdown 13, bounded 1 + 2 = 3 *)
  let o = outcome ~runtime:10.0 ~wait:120.0 () in
  Alcotest.(check (float 1e-9)) "bounded uses 1-min floor" 3.0
    (Outcome.bounded_slowdown o)

let test_excess_wait () =
  let o = outcome ~wait:7200.0 () in
  Alcotest.(check (float 1e-9)) "above threshold" 3600.0
    (Outcome.excess_wait o ~threshold:3600.0);
  Alcotest.(check (float 1e-9)) "below threshold" 0.0
    (Outcome.excess_wait o ~threshold:10000.0)

let test_excess_compute () =
  let outcomes =
    [ outcome ~id:0 ~wait:0.0 (); outcome ~id:1 ~wait:7200.0 ();
      outcome ~id:2 ~wait:10800.0 () ]
  in
  let e = Excess.compute ~threshold:3600.0 outcomes in
  Alcotest.(check int) "two jobs over" 2 e.Excess.count;
  Alcotest.(check (float 1e-9)) "total" (3600.0 +. 7200.0) e.Excess.total;
  Alcotest.(check (float 1e-9)) "average" 5400.0 e.Excess.average;
  Alcotest.(check (float 1e-9)) "total hours" 3.0 (Excess.total_hours e)

let test_excess_empty () =
  let e = Excess.compute ~threshold:0.0 [] in
  Alcotest.(check int) "count" 0 e.Excess.count;
  Alcotest.(check (float 1e-9)) "average" 0.0 e.Excess.average

let test_aggregate () =
  let outcomes =
    [ outcome ~id:0 ~wait:3600.0 (); outcome ~id:1 ~wait:7200.0 () ]
  in
  let a = Aggregate.compute ~avg_queue_length:2.5 outcomes in
  Alcotest.(check int) "n" 2 a.Aggregate.n_jobs;
  Alcotest.(check (float 1e-9)) "avg wait hours" 1.5
    (Aggregate.avg_wait_hours a);
  Alcotest.(check (float 1e-9)) "max wait hours" 2.0
    (Aggregate.max_wait_hours a);
  Alcotest.(check (float 1e-9)) "queue length" 2.5 a.Aggregate.avg_queue_length;
  Alcotest.(check (float 1e-9)) "avg bounded slowdown" 2.5
    a.Aggregate.avg_bounded_slowdown

let test_aggregate_empty () =
  let a = Aggregate.compute [] in
  Alcotest.(check int) "n" 0 a.Aggregate.n_jobs;
  Alcotest.(check (float 1e-9)) "avg" 0.0 a.Aggregate.avg_wait

let test_aggregate_p98 () =
  let outcomes =
    List.init 100 (fun i -> outcome ~id:i ~wait:(float_of_int i *. 60.0) ())
  in
  let a = Aggregate.compute outcomes in
  Alcotest.(check bool) "p98 between 97 and 99 minutes" true
    (a.Aggregate.p98_wait > 96.9 *. 60.0 && a.Aggregate.p98_wait < 99.1 *. 60.0)

let test_class_matrix () =
  let outcomes =
    [
      (* 30-min 1-node job, 1h wait: cell (runtime 10m-1h, class 1) *)
      outcome ~id:0 ~runtime:1800.0 ~nodes:1 ~wait:3600.0 ();
      outcome ~id:1 ~runtime:1800.0 ~nodes:1 ~wait:7200.0 ();
      (* 9h 64-node job: cell (>8h, 33-128) *)
      outcome ~id:2 ~runtime:(9.0 *. 3600.0) ~nodes:64 ~wait:0.0 ();
    ]
  in
  (* cell [(r, c)] of the rendered table: an 8-column label, then
     8-column cells in hours, "-" when empty *)
  let rows = Helpers.pp_lines Class_matrix.pp (Class_matrix.compute outcomes) in
  let cell r c = String.trim (String.sub (List.nth rows (r + 1)) (9 + (9 * c)) 8) in
  Alcotest.(check string) "avg of cell: 5400 s" "1.5" (cell 1 0);
  Alcotest.(check string) "wide long cell" "0.0" (cell 4 4);
  Alcotest.(check string) "empty cell" "-" (cell 0 2)

let prop_bounded_slowdown_at_least_one =
  QCheck.Test.make ~name:"bounded slowdown >= 1" ~count:300
    QCheck.(pair (float_bound_inclusive 1e6) (float_bound_exclusive 1e5))
    (fun (wait, runtime) ->
      let runtime = runtime +. 1.0 in
      let o = outcome ~wait ~runtime () in
      Outcome.bounded_slowdown o >= 1.0)

let suite =
  [
    Alcotest.test_case "outcome validation" `Quick test_outcome_validation;
    Alcotest.test_case "outcome measures" `Quick test_outcome_measures;
    Alcotest.test_case "bounded slowdown floors short jobs" `Quick
      test_bounded_slowdown_short_jobs;
    Alcotest.test_case "excess wait" `Quick test_excess_wait;
    Alcotest.test_case "excess compute" `Quick test_excess_compute;
    Alcotest.test_case "excess empty" `Quick test_excess_empty;
    Alcotest.test_case "aggregate" `Quick test_aggregate;
    Alcotest.test_case "aggregate empty" `Quick test_aggregate_empty;
    Alcotest.test_case "aggregate p98" `Quick test_aggregate_p98;
    Alcotest.test_case "class matrix" `Quick test_class_matrix;
    Helpers.qcheck prop_bounded_slowdown_at_least_one;
  ]
