(* Tests for the fairshare extension: per-user usage accounting,
   per-user metrics, user attribution in the generator and SWF. *)

(* --- Fairshare accounting --- *)

(* A user's share read through the threshold factor at penalty 1. *)
let share t ~now user =
  Core.Fairshare.threshold_factor t ~now ~penalty:1.0 user -. 1.0

let test_usage_accumulates () =
  let t = Core.Fairshare.create () in
  Core.Fairshare.record_start t ~now:0.0 ~nodes:4 ~duration:100.0 ~user:1;
  Core.Fairshare.record_start t ~now:0.0 ~nodes:2 ~duration:50.0 ~user:1;
  Core.Fairshare.record_start t ~now:0.0 ~nodes:1 ~duration:500.0 ~user:2;
  Alcotest.(check (float 1e-9)) "sum of areas: 500 of 1000" 0.5
    (share t ~now:0.0 1);
  Alcotest.(check (float 1e-9)) "unknown user" 0.0 (share t ~now:0.0 99)

let test_usage_decays () =
  let week = Simcore.Units.week in
  let t = Core.Fairshare.create () in
  Core.Fairshare.record_start t ~now:0.0 ~nodes:1 ~duration:1000.0 ~user:1;
  Core.Fairshare.record_start t ~now:week ~nodes:1 ~duration:500.0 ~user:2;
  Alcotest.(check (float 1e-9)) "halved after one half-life" 0.5
    (share t ~now:week 1);
  Core.Fairshare.record_start t ~now:(2.0 *. week) ~nodes:1 ~duration:250.0
    ~user:3;
  Alcotest.(check (float 1e-9)) "quartered after two" (1.0 /. 3.0)
    (share t ~now:(2.0 *. week) 1)

let test_share_and_factor () =
  let t = Core.Fairshare.create () in
  Core.Fairshare.record_start t ~now:0.0 ~nodes:3 ~duration:100.0 ~user:1;
  Core.Fairshare.record_start t ~now:0.0 ~nodes:1 ~duration:100.0 ~user:2;
  Alcotest.(check (float 1e-6)) "share heavy" 0.75 (share t ~now:0.0 1);
  Alcotest.(check (float 1e-6)) "share light" 0.25 (share t ~now:0.0 2);
  Alcotest.(check (float 1e-6)) "factor" 2.5
    (Core.Fairshare.threshold_factor t ~now:0.0 ~penalty:2.0 1);
  Alcotest.(check (float 1e-6)) "empty tracker share" 0.0
    (share (Core.Fairshare.create ()) ~now:0.0 1)

let test_untracked_users_ignored () =
  let t = Core.Fairshare.create () in
  Core.Fairshare.record_start t ~now:0.0 ~nodes:4 ~duration:100.0 ~user:0;
  Core.Fairshare.record_start t ~now:0.0 ~nodes:1 ~duration:100.0 ~user:1;
  Alcotest.(check (float 1e-9)) "user 0 untracked" 0.0 (share t ~now:0.0 0);
  Alcotest.(check (float 1e-9)) "user 1 holds all usage" 1.0
    (share t ~now:0.0 1)

(* --- User_stats --- *)

let outcome ~user ~wait ~nodes ~runtime id =
  let job = Helpers.job ~id ~nodes ~runtime ~user () in
  Metrics.Outcome.v ~job ~start:wait

let test_user_stats () =
  let outcomes =
    [
      outcome ~user:1 ~wait:3600.0 ~nodes:10 ~runtime:3600.0 0;
      outcome ~user:1 ~wait:7200.0 ~nodes:10 ~runtime:3600.0 1;
      outcome ~user:2 ~wait:0.0 ~nodes:1 ~runtime:3600.0 2;
    ]
  in
  let stats = Metrics.User_stats.compute outcomes in
  (* read through the per-user table: header, one row per user by
     descending demand, the Jain line *)
  let rows = Helpers.pp_lines (Metrics.User_stats.pp_top ~n:5) stats in
  Alcotest.(check int) "two user rows" 4 (List.length rows);
  Alcotest.(check string) "user 1 first: jobs, demand share, avg wait"
    (Printf.sprintf "%8d %6d %9.1f %10.2f" 1 2 (100.0 *. 72000.0 /. 75600.0)
       1.5)
    (String.sub (List.nth rows 1) 0 36);
  Alcotest.(check string) "user 2 second, avg slowdown 1.0"
    (Printf.sprintf "%8d %6d %9.1f %10.2f %10.1f" 2 1
       (100.0 *. 3600.0 /. 75600.0) 0.0 1.0)
    (List.nth rows 2);
  let jain = Metrics.User_stats.jain_index stats in
  Alcotest.(check bool) "jain in (0, 1]" true (jain > 0.0 && jain <= 1.0)

let test_user_stats_ignores_anonymous () =
  let outcomes = [ outcome ~user:0 ~wait:0.0 ~nodes:1 ~runtime:60.0 0 ] in
  Alcotest.(check int) "anonymous dropped: header and Jain line only" 2
    (List.length
       (Helpers.pp_lines (Metrics.User_stats.pp_top ~n:5)
          (Metrics.User_stats.compute outcomes)))

let test_jain_extremes () =
  let even =
    [ outcome ~user:1 ~wait:3600.0 ~nodes:1 ~runtime:3600.0 0;
      outcome ~user:2 ~wait:3600.0 ~nodes:1 ~runtime:3600.0 1 ]
  in
  Alcotest.(check (float 1e-9)) "identical users -> 1.0" 1.0
    (Metrics.User_stats.jain_index (Metrics.User_stats.compute even));
  Alcotest.(check (float 1e-9)) "no users -> 0" 0.0
    (Metrics.User_stats.jain_index (Metrics.User_stats.compute []))

(* --- generator & SWF carry users --- *)

let test_generator_assigns_users () =
  let profile = Workload.Month_profile.find "9/03" in
  let config =
    { Workload.Generator.default_config with scale = 0.1; users = 10 }
  in
  let trace = Workload.Generator.month ~config profile in
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun (j : Workload.Job.t) ->
      Alcotest.(check bool) "user in range" true (j.user >= 1 && j.user <= 10);
      Hashtbl.replace seen j.user ())
    (Workload.Trace.jobs trace);
  Alcotest.(check bool) "several users used" true (Hashtbl.length seen >= 5)

let test_swf_roundtrips_user () =
  let job = Helpers.job ~nodes:4 ~user:17 () in
  let trace = Workload.Trace.v [ job ] in
  let path = Filename.temp_file "swf_user" ".swf" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Workload.Swf.to_file path trace;
      match Workload.Swf.of_file path with
      | Error e -> Alcotest.fail e
      | Ok r ->
          let j = (Workload.Trace.jobs r.Workload.Swf.trace).(0) in
          Alcotest.(check int) "user preserved" 17 j.Workload.Job.user)

(* --- policy integration --- *)

let test_fairshare_policy_name () =
  let config =
    { (Core.Search_policy.dds_lxf_dynb ~budget:1000) with
      Core.Search_policy.fairshare = Some 2.0 }
  in
  Alcotest.(check string) "name suffix" "DDS/lxf/dynB(L=1K)+fair(2)"
    (Helpers.search_policy_name config)

let test_fairshare_flips_a_decision () =
  (* Two 8-node jobs on an 8-node machine, identical waits and
     runtimes: without fairshare their orders tie on both objective
     levels and the heuristic order (job id) wins; with fairshare the
     heavy user's inflated threshold absorbs the excess, so serving the
     light user first strictly wins. *)
  let machine = Cluster.Machine.v ~nodes:8 in
  let config =
    Core.Search_policy.v ~fairshare:2.0 ~algorithm:Core.Search.Dds
      ~heuristic:Sched.Priority.lxf
      ~bound:(Core.Bound.fixed_hours 1.0) ~budget:100 ()
  in
  let plain =
    Core.Search_policy.v ~algorithm:Core.Search.Dds
      ~heuristic:Sched.Priority.lxf
      ~bound:(Core.Bound.fixed_hours 1.0) ~budget:100 ()
  in
  let first_started policy_config =
    let policy = fst (Core.Search_policy.policy policy_config) in
    (* decision 1: establish user 1 as the heavy user *)
    let warm = Helpers.job ~id:9 ~submit:0.0 ~nodes:8 ~runtime:3600.0 ~user:1 () in
    let ctx1 =
      { Sched.Policy.now = 0.0; waiting = [ warm ];
        running = Cluster.Running_set.create ~machine;
        r_star = (fun j -> j.Workload.Job.runtime) }
    in
    let (_ : Workload.Job.t list) = policy.Sched.Policy.decide ctx1 in
    (* decision 2: heavy (id 0) vs light (id 1), identical otherwise *)
    let now = 10800.0 in
    let job id user =
      Helpers.job ~id ~submit:(now -. 7200.0) ~nodes:8 ~runtime:1800.0 ~user ()
    in
    let heavy = job 0 1 and light = job 1 2 in
    let ctx2 =
      { Sched.Policy.now; waiting = [ heavy; light ];
        running = Cluster.Running_set.create ~machine;
        r_star = (fun j -> j.Workload.Job.runtime) }
    in
    match policy.Sched.Policy.decide ctx2 with
    | j :: _ -> j.Workload.Job.id
    | [] -> Alcotest.fail "expected a started job"
  in
  Alcotest.(check int) "plain policy keeps heuristic order" 0
    (first_started plain);
  Alcotest.(check int) "fairshare serves the light user first" 1
    (first_started config)

let test_fairshare_policy_completes_workload () =
  let trace = Helpers.mini_trace ~seed:33 ~n:40 () in
  let trace = Helpers.with_users ~users:4 trace in
  let config =
    { (Core.Search_policy.dds_lxf_dynb ~budget:300) with
      Core.Search_policy.fairshare = Some 2.0 }
  in
  let policy = fst (Core.Search_policy.policy config) in
  let result =
    Sim.Engine.run ~machine:(Cluster.Machine.v ~nodes:16)
      ~r_star:Sim.Engine.Actual ~policy trace
  in
  Alcotest.(check int) "all jobs complete" 40
    (List.length result.Sim.Engine.outcomes)

let suite =
  [
    Alcotest.test_case "usage accumulates" `Quick test_usage_accumulates;
    Alcotest.test_case "usage decays" `Quick test_usage_decays;
    Alcotest.test_case "share and factor" `Quick test_share_and_factor;
    Alcotest.test_case "anonymous untracked" `Quick
      test_untracked_users_ignored;
    Alcotest.test_case "user stats" `Quick test_user_stats;
    Alcotest.test_case "user stats ignores anonymous" `Quick
      test_user_stats_ignores_anonymous;
    Alcotest.test_case "jain extremes" `Quick test_jain_extremes;
    Alcotest.test_case "generator assigns users" `Quick
      test_generator_assigns_users;
    Alcotest.test_case "swf roundtrips user" `Quick test_swf_roundtrips_user;
    Alcotest.test_case "fairshare policy name" `Quick
      test_fairshare_policy_name;
    Alcotest.test_case "fairshare flips a decision" `Quick
      test_fairshare_flips_a_decision;
    Alcotest.test_case "fairshare policy completes" `Quick
      test_fairshare_policy_completes_workload;
  ]
