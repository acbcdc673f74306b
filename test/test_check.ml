(* Tests for the Schedcheck validation library: validator invariants on
   real and deliberately corrupted schedules, and the differential
   oracles (reference backfill, exhaustive enumeration, trail vs
   snapshot profiles). *)

open Schedcheck

let r_star (j : Workload.Job.t) = Float.min j.runtime j.requested
let machine16 = Cluster.Machine.v ~nodes:16

let outcome job start finish : Metrics.Outcome.t = { job; start; finish }

let find_violation report invariant =
  List.find_opt
    (fun (v : Report.violation) -> v.invariant = invariant)
    report.Report.violations

let check_violation report invariant ~time =
  match find_violation report invariant with
  | None ->
      Alcotest.failf "expected a %s violation in: %s" invariant
        (Format.asprintf "%a" Report.pp report)
  | Some v -> Alcotest.(check (float 1e-6)) "decision time" time v.Report.time

(* --- expectation_of_policy --- *)

let test_expectation_of_policy () =
  let easy name =
    match Validator.expectation_of_policy name with
    | Validator.Easy_backfill { reservations; priority } ->
        (reservations, priority.Sched.Priority.name)
    | Validator.Generic -> Alcotest.failf "%s should be Easy_backfill" name
  in
  Alcotest.(check (pair int string)) "fcfs" (1, "fcfs") (easy "FCFS-backfill");
  Alcotest.(check (pair int string)) "lxf" (1, "lxf") (easy "LXF-backfill");
  Alcotest.(check (pair int string)) "sjf" (1, "sjf") (easy "SJF-backfill");
  Alcotest.(check (pair int string)) "res suffix" (3, "fcfs")
    (easy "FCFS-backfill/res=3");
  let generic name =
    match Validator.expectation_of_policy name with
    | Validator.Generic -> true
    | Validator.Easy_backfill _ -> false
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " is generic") true (generic name))
    [
      "DDS/lxf/dynB(L=1K)"; "conservative-fcfs"; "run-now";
      "selective-backfill(36.0h)"; "LXF&W(0.02)-backfill"; "nonsense";
    ]

(* --- validator on real engine runs --- *)

let validated ~policy trace =
  let expect =
    Validator.expectation_of_policy policy.Sched.Policy.name
  in
  let run =
    Sim.Run.simulate ~machine:machine16 ~validate:expect
      ~r_star:Sim.Engine.Actual ~policy trace
  in
  Option.get run.Sim.Run.validation

let test_real_runs_ok () =
  let trace = Helpers.mini_trace ~n:60 ~capacity:16 ~seed:7 () in
  List.iter
    (fun policy ->
      let report = validated ~policy trace in
      Alcotest.(check bool)
        (policy.Sched.Policy.name ^ " validates clean")
        true (Report.ok report);
      Alcotest.(check int) "all outcomes checked" 60
        report.Report.jobs_checked;
      Alcotest.(check bool) "decisions replayed" true
        (report.Report.decisions_checked > 0))
    [ Sched.Backfill.fcfs; Sched.Backfill.lxf; Sched.Backfill.sjf;
      Sched.Policy.run_now ]

let test_predicted_downgrades () =
  (* The stateful estimator cannot be replayed: Run.simulate must fall
     back to the generic invariants instead of reporting phantom
     differential violations. *)
  let trace = Helpers.mini_trace ~n:50 ~capacity:16 ~seed:11 () in
  let run =
    Sim.Run.simulate ~machine:machine16
      ~validate:(Validator.expectation_of_policy "FCFS-backfill")
      ~r_star:Sim.Engine.Predicted ~policy:Sched.Backfill.fcfs trace
  in
  let report = Option.get run.Sim.Run.validation in
  Alcotest.(check bool) "clean under Predicted" true (Report.ok report)

(* --- seeded faults: corrupted schedules must be caught --- *)

let two_jobs =
  [
    Helpers.job ~id:0 ~submit:0.0 ~nodes:8 ~runtime:100.0 ();
    Helpers.job ~id:1 ~submit:0.0 ~nodes:8 ~runtime:100.0 ();
  ]

let validate_raw ?(machine = Cluster.Machine.v ~nodes:8) jobs outcomes =
  Validator.validate ~machine ~subject:"corrupted" ~r_star
    ~trace:(Workload.Trace.v jobs) ~outcomes ()

let j0, j1 =
  match two_jobs with [ a; b ] -> (a, b) | _ -> assert false

let test_catches_capacity () =
  (* both 8-node jobs at t=0 on an 8-node machine *)
  let report =
    validate_raw two_jobs [ outcome j0 0.0 100.0; outcome j1 0.0 100.0 ]
  in
  check_violation report "capacity" ~time:0.0

let test_catches_start_before_submit () =
  let j = Helpers.job ~id:0 ~submit:100.0 ~runtime:100.0 () in
  let report = validate_raw [ j ] [ outcome j 50.0 150.0 ] in
  check_violation report "start-after-submit" ~time:50.0

let test_catches_preemption () =
  (* job runs 500 s longer than min(T, R): nodes held too long *)
  let j = Helpers.job ~id:0 ~runtime:100.0 () in
  let report = validate_raw [ j ] [ outcome j 0.0 600.0 ] in
  check_violation report "exact-runtime" ~time:0.0

let test_catches_lost_and_phantom_jobs () =
  let report = validate_raw two_jobs [ outcome j0 0.0 100.0 ] in
  check_violation report "job-completeness" ~time:0.0;
  let phantom = Helpers.job ~id:9 ~runtime:50.0 () in
  let report =
    validate_raw two_jobs
      [
        outcome j0 0.0 100.0; outcome j1 100.0 200.0;
        outcome phantom 0.0 50.0;
      ]
  in
  check_violation report "job-completeness" ~time:0.0

let test_catches_off_decision_start () =
  (* legal in every other respect, but started at t=42 when the only
     events are the arrival (t=0) and its own finish *)
  let j = Helpers.job ~id:0 ~submit:0.0 ~runtime:100.0 () in
  let report = validate_raw [ j ] [ outcome j 42.0 142.0 ] in
  check_violation report "start-at-decision-point" ~time:42.0

let test_catches_wide_job () =
  let j = Helpers.job ~id:0 ~nodes:9 ~runtime:100.0 () in
  let report = validate_raw [ j ] [ outcome j 0.0 100.0 ] in
  check_violation report "job-fits-machine" ~time:0.0

(* An impostor greedy policy wearing the FCFS-backfill name: the
   differential replay must notice the schedule is not what the real
   EASY backfill would have produced. *)
let test_catches_impostor_backfill () =
  let impostor =
    { Sched.Policy.run_now with Sched.Policy.name = "FCFS-backfill" }
  in
  let trace = Helpers.mini_trace ~n:40 ~capacity:16 ~seed:3 () in
  let report = validated ~policy:impostor trace in
  Alcotest.(check bool) "impostor detected" false (Report.ok report);
  (match find_violation report "backfill-differential" with
  | Some v ->
      Alcotest.(check bool) "at a positive decision time" true
        (v.Report.time > 0.0);
      Alcotest.(check bool) "names offending jobs" true (v.Report.jobs <> [])
  | None ->
      Alcotest.failf "expected a backfill-differential violation in: %s"
        (Format.asprintf "%a" Report.pp report));
  (* the genuine article stays clean on the same workload *)
  Alcotest.(check bool) "real backfill clean" true
    (Report.ok (validated ~policy:Sched.Backfill.fcfs trace))

(* --- differential oracle: Backfill.plan vs naive reference --- *)

let random_context rng =
  let capacity = 8 + Simcore.Rng.int rng 57 in
  let machine = Cluster.Machine.v ~nodes:capacity in
  let now = 3600.0 in
  let running = Cluster.Running_set.create ~machine in
  let n_running = Simcore.Rng.int rng 5 in
  for i = 0 to n_running - 1 do
    let nodes = 1 + Simcore.Rng.int rng (capacity / 2) in
    if nodes <= Cluster.Running_set.free_nodes running then begin
      let runtime = 60.0 +. Simcore.Rng.float rng 7200.0 in
      let start = Simcore.Rng.float rng now in
      let job =
        Workload.Job.v ~id:(1000 + i) ~submit:start ~nodes ~runtime
          ~requested:runtime
      in
      Cluster.Running_set.add running
        { job; start; finish = start +. runtime;
          est_finish = start +. runtime }
    end
  done;
  let n_waiting = 1 + Simcore.Rng.int rng 8 in
  let waiting =
    List.init n_waiting (fun i ->
        let runtime = 60.0 +. Simcore.Rng.float rng 7200.0 in
        Workload.Job.v ~id:i
          ~submit:(Simcore.Rng.float rng now)
          ~nodes:(1 + Simcore.Rng.int rng capacity)
          ~runtime
          ~requested:(runtime *. (1.0 +. Simcore.Rng.float rng 2.0)))
  in
  { Sched.Policy.now; waiting; running; r_star }

let plans_agree (plan : Sched.Backfill.plan) (ref_plan : Oracle.reference_plan)
    =
  let ids = List.map (fun (j : Workload.Job.t) -> j.id) in
  ids plan.Sched.Backfill.start_now = ids ref_plan.Oracle.start_now
  && List.map
       (fun ((j : Workload.Job.t), s) -> (j.id, s))
       plan.Sched.Backfill.reserved
     = List.map
         (fun ((j : Workload.Job.t), s) -> (j.id, s))
         ref_plan.Oracle.reserved

let prop_backfill_matches_reference =
  QCheck.Test.make ~name:"Backfill.plan = naive reference backfill"
    ~count:200 QCheck.small_int (fun seed ->
      let rng = Simcore.Rng.create ~seed in
      let ctx = random_context rng in
      let reservations = 1 + Simcore.Rng.int rng 3 in
      List.for_all
        (fun priority ->
          plans_agree
            (Sched.Backfill.plan ~reservations ~priority ctx)
            (Oracle.reference_backfill ~reservations ~priority ctx))
        [ Sched.Priority.fcfs; Sched.Priority.lxf; Sched.Priority.sjf ])

(* --- differential oracle: search vs exhaustive enumeration --- *)

let make_state ?(backtrack = Core.Search_state.Trail) ~releases ~heuristic
    jobs =
  let now = 1100.0 in
  let profile = Cluster.Profile.of_running ~now ~capacity:8 releases in
  let ordered = Core.Branching.order heuristic ~now ~r_star jobs in
  let durations = Array.map r_star ordered in
  let thresholds =
    Core.Bound.thresholds (Core.Bound.fixed_hours 0.5) ~now ~r_star ordered
  in
  Core.Search_state.create ~backtrack ~now ~profile ~jobs:ordered ~durations
    ~thresholds ()

let random_queue rng =
  let n = 2 + Simcore.Rng.int rng 5 in
  let jobs =
    List.init n (fun id ->
        Helpers.job ~id
          ~submit:(Simcore.Rng.float rng 1000.0)
          ~nodes:(1 + Simcore.Rng.int rng 8)
          ~runtime:(60.0 +. Simcore.Rng.float rng 10000.0)
          ())
  in
  let releases =
    List.init (Simcore.Rng.int rng 3) (fun _ ->
        (1200.0 +. Simcore.Rng.float rng 5000.0, 1 + Simcore.Rng.int rng 3))
  in
  (jobs, releases)

let prop_search_matches_enumeration =
  QCheck.Test.make ~name:"exhausted search = Oracle.enumerate_best"
    ~count:100 QCheck.small_int (fun seed ->
      let rng = Simcore.Rng.create ~seed in
      let jobs, releases = random_queue rng in
      List.for_all
        (fun algo ->
          let result =
            Core.Search.run algo ~budget:max_int
              (make_state ~releases ~heuristic:Core.Branching.Lxf jobs)
          in
          let best =
            Oracle.enumerate_best
              (make_state ~releases ~heuristic:Core.Branching.Lxf jobs)
          in
          result.Core.Search.exhausted
          && Core.Objective.compare result.Core.Search.best best = 0)
        [ Core.Search.Dfs; Core.Search.Lds; Core.Search.Dds ])

(* --- differential oracle: trail vs snapshot profile mutation --- *)

(* Drive one working profile through random reservations with the O(Δ)
   trail, and an independent chain of full snapshots through the same
   reservations; every intermediate state must agree segment-for-
   segment, and unwinding the trail must restore the original. *)
let prop_profile_trail_matches_snapshots =
  QCheck.Test.make ~name:"profile trail = snapshot chain" ~count:200
    QCheck.small_int (fun seed ->
      let rng = Simcore.Rng.create ~seed in
      let capacity = 4 + Simcore.Rng.int rng 61 in
      let releases =
        (* running jobs must fit the machine together *)
        let free = ref capacity in
        List.filter_map
          (fun nodes ->
            if nodes <= !free then begin
              free := !free - nodes;
              Some (Simcore.Rng.float rng 50000.0, nodes)
            end
            else None)
          (List.init (Simcore.Rng.int rng 10) (fun _ ->
               1 + Simcore.Rng.int rng 8))
      in
      let p = Cluster.Profile.of_running ~now:0.0 ~capacity releases in
      let original = Cluster.Profile.copy p in
      let mark = Cluster.Profile.mark p in
      let snapshot = ref (Cluster.Profile.copy p) in
      let steps = 1 + Simcore.Rng.int rng 15 in
      let agreed = ref true in
      for _ = 1 to steps do
        let nodes = 1 + Simcore.Rng.int rng capacity in
        let duration = 60.0 +. Simcore.Rng.float rng 7200.0 in
        let at = Cluster.Profile.earliest_start p ~nodes ~duration in
        Cluster.Profile.reserve p ~at ~nodes ~duration;
        snapshot := Cluster.Profile.copy !snapshot;
        Cluster.Profile.reserve !snapshot ~at ~nodes ~duration;
        agreed :=
          !agreed
          && Cluster.Profile.segments p = Cluster.Profile.segments !snapshot
          && Cluster.Profile.invariant p
      done;
      Cluster.Profile.undo_to p mark;
      !agreed
      && Cluster.Profile.segments p = Cluster.Profile.segments original)

let suite =
  [
    Alcotest.test_case "expectation of policy" `Quick
      test_expectation_of_policy;
    Alcotest.test_case "real runs validate clean" `Quick test_real_runs_ok;
    Alcotest.test_case "Predicted downgrades to generic" `Quick
      test_predicted_downgrades;
    Alcotest.test_case "catches oversubscription" `Quick test_catches_capacity;
    Alcotest.test_case "catches start before submit" `Quick
      test_catches_start_before_submit;
    Alcotest.test_case "catches runtime tampering" `Quick
      test_catches_preemption;
    Alcotest.test_case "catches lost and phantom jobs" `Quick
      test_catches_lost_and_phantom_jobs;
    Alcotest.test_case "catches off-decision starts" `Quick
      test_catches_off_decision_start;
    Alcotest.test_case "catches too-wide jobs" `Quick test_catches_wide_job;
    Alcotest.test_case "catches impostor backfill" `Quick
      test_catches_impostor_backfill;
    QCheck_alcotest.to_alcotest prop_backfill_matches_reference;
    QCheck_alcotest.to_alcotest prop_search_matches_enumeration;
    QCheck_alcotest.to_alcotest prop_profile_trail_matches_snapshots;
  ]
