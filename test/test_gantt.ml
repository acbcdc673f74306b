(* Tests for the ASCII schedule visualisation. *)

let outcome ?(id = 0) ?(submit = 0.0) ?(nodes = 4) ~start ~finish () =
  Metrics.Outcome.v
    ~job:(Helpers.job ~id ~submit ~nodes ~runtime:(finish -. start) ())
    ~start

let render f outcomes =
  let buffer = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buffer in
  f fmt outcomes;
  Format.pp_print_flush fmt ();
  Buffer.contents buffer

let test_jobs_chart_shapes () =
  let outcomes =
    [
      outcome ~id:0 ~start:0.0 ~finish:50.0 ();
      outcome ~id:1 ~submit:0.0 ~start:50.0 ~finish:100.0 ();
    ]
  in
  let out = render (Sim.Gantt.jobs_chart) outcomes in
  Alcotest.(check bool) "mentions legend" true
    (Helpers.contains out "'#'=running");
  Alcotest.(check bool) "has waiting dots" true (Helpers.contains out ".");
  Alcotest.(check bool) "has running hashes" true (Helpers.contains out "#");
  (* job 1 waits for the first half: its row must contain dots before
     hashes *)
  let lines = String.split_on_char '\n' out in
  let row1 = List.find (fun l -> Helpers.contains l "   1 ") lines in
  let dot = String.index row1 '.' in
  let hash = String.index row1 '#' in
  Alcotest.(check bool) "dots precede hashes" true (dot < hash)

let test_jobs_chart_elision () =
  let outcomes =
    List.init 47 (fun id ->
        outcome ~id ~start:(float_of_int id) ~finish:(float_of_int id +. 1.0) ())
  in
  let out = render Sim.Gantt.jobs_chart outcomes in
  Alcotest.(check bool) "elision note: 40 rows shown" true
    (Helpers.contains out "7 more jobs not shown")

let test_jobs_chart_empty () =
  Alcotest.(check bool) "empty message" true
    (Helpers.contains (render Sim.Gantt.jobs_chart []) "(no jobs)")

let test_utilization_chart () =
  (* one 8-node job busy the whole window on a 16-node machine: every
     bucket should read ~50% = digit 5 *)
  let outcomes = [ outcome ~nodes:8 ~start:0.0 ~finish:72.0 () ] in
  let out =
    render (Sim.Gantt.utilization_chart ~capacity:16) outcomes
  in
  Alcotest.(check bool) "has a bar line" true (Helpers.contains out "|");
  Alcotest.(check bool) "reads 5 in all 72 columns" true
    (Helpers.contains out ("|" ^ String.make 72 '5' ^ "|"))

let suite =
  [
    Alcotest.test_case "jobs chart shapes" `Quick test_jobs_chart_shapes;
    Alcotest.test_case "jobs chart elision" `Quick test_jobs_chart_elision;
    Alcotest.test_case "jobs chart empty" `Quick test_jobs_chart_empty;
    Alcotest.test_case "utilization chart" `Quick test_utilization_chart;
  ]
