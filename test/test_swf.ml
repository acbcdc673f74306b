(* Tests for the SWF trace reader/writer. *)

open Workload

let sample =
  String.concat "\n"
    [
      "; Computer: test cluster";
      "; MaxNodes: 128";
      "1 0 10 3600 4 -1 -1 4 7200 -1 1 -1 -1 -1 -1 -1 -1 -1";
      "2 100 0 1800 8 -1 -1 -1 -1 -1 1 -1 -1 -1 -1 -1 -1 -1";
      "";
      "3 200 5 60 1 -1 -1 2 120 -1 1 -1 -1 -1 -1 -1 -1 -1";
    ]

let parse s =
  match Helpers.swf_of_string s with
  | Ok r -> r
  | Error e -> Alcotest.fail ("parse error: " ^ e)

let test_parse_basic () =
  let r = parse sample in
  Alcotest.(check int) "three jobs" 3 (Trace.length r.Swf.trace);
  Alcotest.(check int) "no skips" 0 r.Swf.skipped;
  Alcotest.(check int) "two comments" 2 (List.length r.Swf.comments);
  let jobs = Trace.jobs r.Swf.trace in
  Alcotest.(check int) "job 0 nodes from requested procs" 4 jobs.(0).Job.nodes;
  Alcotest.(check (float 1e-9)) "job 0 requested time" 7200.0
    jobs.(0).Job.requested;
  (* job 1 has requested procs = -1: falls back to allocated procs *)
  Alcotest.(check int) "job 1 nodes fallback" 8 jobs.(1).Job.nodes;
  (* job 1 requested time = -1: falls back to runtime *)
  Alcotest.(check (float 1e-9)) "job 1 requested fallback" 1800.0
    jobs.(1).Job.requested

let test_parse_skips_unusable () =
  let bad = "5 0 0 -1 4 -1 -1 4 100 -1 0 -1 -1 -1 -1 -1 -1 -1" in
  let r = parse bad in
  Alcotest.(check int) "unusable skipped" 1 r.Swf.skipped;
  Alcotest.(check int) "no jobs" 0 (Trace.length r.Swf.trace)

(* [float_of_string_opt] accepts "nan" and "inf"; such rows are
   unusable jobs, skipped and counted rather than admitted or raised. *)
let test_parse_skips_non_finite () =
  let r =
    parse
      "1 0 0 nan 4 -1 -1 4 100 -1 1 3\n2 10 0 50 2 -1 -1 2 inf -1 1 3\n"
  in
  Alcotest.(check int) "both rows skipped" 2 r.Swf.skipped;
  Alcotest.(check int) "no jobs" 0 (Trace.length r.Swf.trace)

let test_parse_malformed () =
  match Helpers.swf_of_string "1 2 3" with
  | Ok _ -> Alcotest.fail "expected parse error"
  | Error msg ->
      Alcotest.(check bool) "mentions line" true
        (Helpers.contains msg "line 1")

let test_requested_clamped_to_runtime () =
  (* requested time below actual runtime must be raised to runtime *)
  let line = "1 0 0 3600 2 -1 -1 2 60 -1 1 -1 -1 -1 -1 -1 -1 -1" in
  let r = parse line in
  let j = (Trace.jobs r.Swf.trace).(0) in
  Alcotest.(check (float 1e-9)) "requested >= runtime" 3600.0 j.Job.requested

let test_roundtrip_file () =
  let jobs =
    [
      Job.v ~id:0 ~submit:0.0 ~nodes:4 ~runtime:3600.0 ~requested:7200.0;
      Job.v ~id:1 ~submit:500.0 ~nodes:128 ~runtime:60.0 ~requested:60.0;
    ]
  in
  let t = Trace.v jobs in
  let path = Filename.temp_file "swf_test" ".swf" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Swf.to_file ~comments:[ "; roundtrip" ] path t;
      match Swf.of_file path with
      | Error e -> Alcotest.fail e
      | Ok r ->
          Alcotest.(check int) "job count" 2 (Trace.length r.Swf.trace);
          Array.iteri
            (fun i (j : Job.t) ->
              let original = (Trace.jobs t).(i) in
              Alcotest.(check int) "nodes" original.Job.nodes j.Job.nodes;
              Alcotest.(check (float 0.51)) "submit" original.Job.submit
                j.Job.submit;
              Alcotest.(check (float 0.51)) "runtime" original.Job.runtime
                j.Job.runtime;
              Alcotest.(check (float 0.51)) "requested" original.Job.requested
                j.Job.requested)
            (Trace.jobs r.Swf.trace))


(* Sum of N x T over all jobs, node-seconds. *)
let demand t = Array.fold_left (fun acc j -> acc +. Job.area j) 0.0 (Trace.jobs t)

let test_generated_trace_roundtrip () =
  (* write a generated month as SWF and reparse: same job mix *)
  let profile = Month_profile.find "10/03" in
  let config = { Generator.default_config with scale = 0.05 } in
  let t = Generator.month ~config profile in
  let path = Filename.temp_file "swf_gen" ".swf" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Swf.to_file path t;
      match Swf.of_file path with
      | Error e -> Alcotest.fail e
      | Ok r ->
          Alcotest.(check int) "job count preserved" (Trace.length t)
            (Trace.length r.Swf.trace);
          Alcotest.(check (float 0.01)) "demand preserved (to rounding)"
            1.0
            (demand r.Swf.trace /. demand t))

let test_parse_crlf () =
  (* Windows-exported / HTTP-fetched traces end lines with \r\n; the
     stray \r used to corrupt the last field of every line. *)
  let crlf = String.concat "\r\n" (String.split_on_char '\n' sample) in
  let r = parse crlf in
  Alcotest.(check int) "three jobs" 3 (Trace.length r.Swf.trace);
  Alcotest.(check int) "no skips" 0 r.Swf.skipped;
  let lf = parse sample in
  Alcotest.(check bool) "same jobs as LF parse" true
    (List.for_all2 Job.equal
       (Array.to_list (Trace.jobs r.Swf.trace))
       (Array.to_list (Trace.jobs lf.Swf.trace)))

let test_numeric_error_has_line_number () =
  let bad =
    String.concat "\n"
      [
        "; header";
        "1 0 10 3600 4 -1 -1 4 7200 -1 1 -1 -1 -1 -1 -1 -1 -1";
        "2 x 10 3600 4 -1 -1 4 7200 -1 1 -1 -1 -1 -1 -1 -1 -1";
      ]
  in
  match Helpers.swf_of_string bad with
  | Ok _ -> Alcotest.fail "expected parse error"
  | Error msg ->
      Alcotest.(check bool) "mentions the line" true
        (Helpers.contains msg "line 3");
      Alcotest.(check bool) "names the field" true
        (Helpers.contains msg "bad submit field")

let test_malformed_corpus () =
  let error line =
    match Helpers.swf_of_string line with Ok _ -> None | Error e -> Some e
  in
  (* truncated record: hard error with its line number *)
  (match error "1 2 3" with
  | Some e -> Alcotest.(check bool) "truncated" true (Helpers.contains e "line 1")
  | None -> Alcotest.fail "truncated line must error");
  (* non-numeric runtime: hard error naming field and line *)
  (match error "1 0 10 oops 4 -1 -1 4 7200 -1 1 -1 -1 -1 -1 -1 -1 -1" with
  | Some e ->
      Alcotest.(check bool) "bad runtime" true
        (Helpers.contains e "bad runtime field")
  | None -> Alcotest.fail "non-numeric runtime must error");
  (* unusable but well-formed records: skipped, not errors *)
  let skipped line =
    let r = parse line in
    (r.Swf.skipped, Trace.length r.Swf.trace)
  in
  Alcotest.(check (pair int int)) "negative submit skipped" (1, 0)
    (skipped "1 -5 10 3600 4 -1 -1 4 7200 -1 1 -1 -1 -1 -1 -1 -1 -1");
  Alcotest.(check (pair int int)) "zero nodes skipped" (1, 0)
    (skipped "1 0 10 3600 0 -1 -1 0 7200 -1 1 -1 -1 -1 -1 -1 -1 -1")

let test_to_file_waits () =
  (* exported traces carry per-job waits through the wait field *)
  let jobs =
    [
      Job.v ~id:0 ~submit:0.0 ~nodes:4 ~runtime:3600.0 ~requested:7200.0;
      Job.v ~id:1 ~submit:500.0 ~nodes:2 ~runtime:60.0 ~requested:60.0;
    ]
  in
  let t = Trace.v jobs in
  let wait (j : Job.t) = if j.Job.id = 0 then 0.0 else 1234.0 in
  let path = Filename.temp_file "swf_wait" ".swf" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Swf.to_file ~wait path t;
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let wait_field line =
            match String.split_on_char ' ' line with
            | _ :: _ :: w :: _ -> w
            | _ -> Alcotest.fail "short line"
          in
          Alcotest.(check string) "job 0 wait" "0"
            (wait_field (input_line ic));
          Alcotest.(check string) "job 1 wait" "1234"
            (wait_field (input_line ic))))

let prop_roundtrip =
  (* of_file (to_file t) = t modulo the writer's whole-second rounding
     and id renumbering *)
  QCheck.Test.make ~name:"SWF roundtrip preserves every job" ~count:50
    QCheck.int (fun seed ->
      let t = Helpers.mini_trace ~n:25 ~capacity:64 ~seed () in
      let path = Filename.temp_file "swf_prop" ".swf" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Swf.to_file path t;
          match Swf.of_file path with
          | Error e -> Alcotest.fail e
          | Ok r ->
              r.Swf.skipped = 0
              && Trace.length r.Swf.trace = Trace.length t
              && List.for_all2
                   (fun (a : Job.t) (b : Job.t) ->
                     a.Job.nodes = b.Job.nodes
                     && a.Job.user = b.Job.user
                     && Float.abs (a.Job.submit -. b.Job.submit) <= 0.51
                     && Float.abs (a.Job.runtime -. b.Job.runtime) <= 0.51
                     && Float.abs (a.Job.requested -. b.Job.requested)
                        <= 0.51)
                   (Array.to_list (Trace.jobs t))
                   (Array.to_list (Trace.jobs r.Swf.trace))))

let test_fixture_file () =
  match Swf.of_file "fixtures/sample.swf" with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.(check int) "five jobs" 5 (Trace.length r.Swf.trace);
      Alcotest.(check int) "three header comments" 3
        (List.length r.Swf.comments);
      let jobs = Trace.jobs r.Swf.trace in
      Alcotest.(check int) "user from field 12" 11 jobs.(0).Job.user;
      Alcotest.(check int) "missing user -> 0" 0 jobs.(4).Job.user;
      Alcotest.(check int) "widest job" 128 jobs.(3).Job.nodes;
      (* requested below runtime is clamped up *)
      Alcotest.(check (float 1e-9)) "requested >= runtime" 86400.0
        jobs.(3).Job.requested;
      (* the fixture must simulate cleanly end to end *)
      let run =
        Sim.Run.simulate ~r_star:Sim.Engine.Requested
          ~policy:Sched.Backfill.lxf r.Swf.trace
      in
      Alcotest.(check int) "all jobs complete" 5
        run.Sim.Run.aggregate.Metrics.Aggregate.n_jobs

let suite =
  [
    Alcotest.test_case "parse basic" `Quick test_parse_basic;
    Alcotest.test_case "fixture file" `Quick test_fixture_file;
    Alcotest.test_case "skip unusable" `Quick test_parse_skips_unusable;
    Alcotest.test_case "skip nan/inf times" `Quick test_parse_skips_non_finite;
    Alcotest.test_case "malformed line" `Quick test_parse_malformed;
    Alcotest.test_case "requested clamped" `Quick
      test_requested_clamped_to_runtime;
    Alcotest.test_case "file roundtrip" `Quick test_roundtrip_file;
    Alcotest.test_case "generated trace roundtrip" `Quick
      test_generated_trace_roundtrip;
    Alcotest.test_case "CRLF corpus" `Quick test_parse_crlf;
    Alcotest.test_case "numeric error line number" `Quick
      test_numeric_error_has_line_number;
    Alcotest.test_case "malformed corpus" `Quick test_malformed_corpus;
    Alcotest.test_case "to_file waits" `Quick test_to_file_waits;
    Helpers.qcheck prop_roundtrip;
  ]
