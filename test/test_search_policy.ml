(* Tests for the search-based scheduling policy wrapper and the
   local-search extension. *)

open Core

let r_star (j : Workload.Job.t) = j.runtime

let context ?(now = 0.0) ?(capacity = 16) ~waiting () =
  let machine = Cluster.Machine.v ~nodes:capacity in
  let running = Cluster.Running_set.create ~machine in
  { Sched.Policy.now; waiting; running; r_star }

let test_names () =
  Alcotest.(check string) "headline policy name" "DDS/lxf/dynB(L=1K)"
    (Helpers.search_policy_name (Search_policy.dds_lxf_dynb ~budget:1000));
  let lds =
    Search_policy.v ~algorithm:Search.Lds ~heuristic:Sched.Priority.fcfs
      ~bound:(Bound.fixed_hours 50.0) ~budget:2000 ()
  in
  Alcotest.(check string) "lds fixed-bound name" "LDS/fcfs/w=50h(L=2K)"
    (Helpers.search_policy_name lds);
  let pruned = { (Search_policy.dds_lxf_dynb ~budget:500) with
                 Search_policy.prune = true }
  in
  Alcotest.(check string) "bnb suffix" "DDS/lxf/dynB(L=500)+bnb"
    (Helpers.search_policy_name pruned);
  let wait_goal =
    { (Search_policy.dds_lxf_dynb ~budget:1000) with
      Search_policy.goal = Objective.Avg_wait }
  in
  Alcotest.(check string) "goal suffix" "DDS/lxf/dynB(L=1K)@goal=avgW"
    (Helpers.search_policy_name wait_goal)

let test_invalid_budget () =
  Alcotest.check_raises "budget >= 1"
    (Invalid_argument "Search_policy.v: budget must be >= 1") (fun () ->
      ignore
        (Search_policy.v ~algorithm:Search.Dds ~heuristic:Sched.Priority.lxf
           ~bound:Bound.dynamic ~budget:0 ()))

let test_empty_queue () =
  let policy, stats = Search_policy.policy (Search_policy.dds_lxf_dynb ~budget:100) in
  let started = policy.Sched.Policy.decide (context ~waiting:[] ()) in
  Alcotest.(check int) "nothing to start" 0 (List.length started);
  Alcotest.(check int) "no search ran" 0 (stats ()).Search_policy.total_nodes

let test_starts_fitting_jobs () =
  let waiting =
    [ Helpers.job ~id:0 ~nodes:8 (); Helpers.job ~id:1 ~submit:1.0 ~nodes:8 () ]
  in
  let policy, stats =
    Search_policy.policy (Search_policy.dds_lxf_dynb ~budget:100)
  in
  let started = policy.Sched.Policy.decide (context ~waiting ()) in
  Alcotest.(check int) "both fit and start" 2 (List.length started);
  Alcotest.(check bool) "nodes counted" true
    ((stats ()).Search_policy.total_nodes >= 2)

let probe_of (policy : Sched.Policy.t) = Option.get policy.Sched.Policy.probe

let test_probe_after_decide () =
  let policy, _ = Search_policy.policy (Search_policy.dds_lxf_dynb ~budget:100) in
  ignore
    (policy.Sched.Policy.decide
       (context ~waiting:[ Helpers.job ~id:0 ~nodes:4 () ] ()));
  let probe = probe_of policy in
  Alcotest.(check bool) "single-job tree exhausted" true
    probe.Simcore.Telemetry.Probe.exhausted;
  Alcotest.(check int) "one leaf" 1 probe.Simcore.Telemetry.Probe.leaves;
  Alcotest.(check int) "budget" 100 probe.Simcore.Telemetry.Probe.budget

let test_empty_queue_resets_probe () =
  let policy, _ = Search_policy.policy (Search_policy.dds_lxf_dynb ~budget:100) in
  ignore
    (policy.Sched.Policy.decide
       (context ~waiting:[ Helpers.job ~id:0 ~nodes:4 () ] ()));
  ignore (policy.Sched.Policy.decide (context ~waiting:[] ()));
  let probe = probe_of policy in
  Alcotest.(check int) "no nodes" 0 probe.Simcore.Telemetry.Probe.nodes;
  Alcotest.(check int) "no budget: did not search" 0
    probe.Simcore.Telemetry.Probe.budget

(* Local search must never worsen the incumbent and must leave the
   state clean. *)
let prop_local_search_never_worse =
  QCheck.Test.make ~name:"local search never worsens the schedule" ~count:60
    QCheck.int
    (fun seed ->
      let rng = Simcore.Rng.create ~seed in
      let n = 3 + Simcore.Rng.int rng 5 in
      let jobs =
        List.init n (fun id ->
            Helpers.job ~id
              ~submit:(Simcore.Rng.float rng 500.0)
              ~nodes:(1 + Simcore.Rng.int rng 8)
              ~runtime:(60.0 +. Simcore.Rng.float rng 5000.0)
              ())
      in
      let profile = Cluster.Profile.create ~now:600.0 ~capacity:8 in
      let ordered =
        Array.of_list
          (Sched.Priority.order Sched.Priority.lxf ~now:600.0 ~r_star jobs)
      in
      let durations = Array.map r_star ordered in
      let thresholds =
        Bound.thresholds (Bound.fixed_hours 0.1) ~now:600.0 ~r_star ordered
      in
      let state =
        Search_state.create ~now:600.0 ~profile ~jobs:ordered ~durations
          ~thresholds ()
      in
      let base = Search.run Search.Dds ~budget:(2 * n) state in
      let improved = Local_search.improve ~budget:1000 state base in
      Helpers.objective_no_worse improved.Search.best base.Search.best
      && Array.length improved.Search.best_order = n
      && Search_state.first_unused state = 0
      && List.for_all
           (fun i -> Search_state.next_unused state i = i + 1)
           (List.init n Fun.id))

let test_local_search_finds_swap () =
  (* heuristic order deliberately bad: big job first starves the rest;
     swapping improves the first-level objective *)
  let jobs =
    [ Helpers.job ~id:0 ~submit:0.0 ~nodes:8 ~runtime:10000.0 ();
      Helpers.job ~id:1 ~submit:1.0 ~nodes:1 ~runtime:60.0 () ]
  in
  let profile = Cluster.Profile.create ~now:10.0 ~capacity:8 in
  let ordered =
    Array.of_list
      (Sched.Priority.order Sched.Priority.fcfs ~now:10.0 ~r_star jobs)
  in
  let durations = Array.map r_star ordered in
  let thresholds = Bound.thresholds (Bound.Fixed 0.0) ~now:10.0 ~r_star ordered in
  let state =
    Search_state.create ~now:10.0 ~profile ~jobs:ordered ~durations ~thresholds
      ()
  in
  (* budget 2 = only the heuristic path gets evaluated *)
  let base = Search.run Search.Dds ~budget:2 state in
  let improved = Local_search.improve ~budget:100 state base in
  Alcotest.(check bool) "swap improves excess" true
    (improved.Search.best.Objective.excess < base.Search.best.Objective.excess)

(* Allocation guard for the branching order.  LXF over a 64-job queue
   that arrives in submit order but is far from LXF order: the keyed
   order computes 64 keys into a float array, merge-sorts an int
   permutation and builds the result (list, then the returned array),
   about 10 minor words per job in a test build.  Reading the keys
   through a polymorphic array with polymorphic compare measured 29,
   and [Array.sort] with a comparator that recomputes the expansion
   factors 40, so the bound of 16 fails either.  An already
   FCFS-ordered queue comes back as is, so the search's order allocates
   exactly what [Array.of_list] does for its returned array. *)
let test_order_allocation () =
  let n = 64 in
  let now = 100_000.0 in
  let queue =
    List.init n (fun id ->
        Helpers.job ~id
          ~submit:(Float.of_int (1000 * id))
          ~runtime:(Float.of_int (60 * (1 + (id * 37 mod 61))))
          ())
  in
  let words_of f =
    ignore (f ());
    let before = Gc.minor_words () in
    ignore (f ());
    Gc.minor_words () -. before
  in
  let lxf_words =
    words_of (fun () ->
        Array.of_list
          (Sched.Priority.order Sched.Priority.lxf ~now ~r_star queue))
  in
  let per_job = lxf_words /. Float.of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "LXF order: %.1f minor words per job <= 16" per_job)
    true (per_job <= 16.0);
  Alcotest.(check (float 0.0)) "FCFS order: only the returned array"
    (words_of (fun () -> Array.of_list queue))
    (words_of (fun () ->
         Array.of_list
           (Sched.Priority.order Sched.Priority.fcfs ~now ~r_star queue)));
  Alcotest.(check (float 0.0)) "FCFS Priority.order: nothing" 0.0
    (words_of (fun () -> Sched.Priority.order Sched.Priority.fcfs ~now ~r_star queue))

let suite =
  [
    Alcotest.test_case "policy names" `Quick test_names;
    Alcotest.test_case "invalid budget" `Quick test_invalid_budget;
    Alcotest.test_case "empty queue" `Quick test_empty_queue;
    Alcotest.test_case "starts fitting jobs" `Quick test_starts_fitting_jobs;
    Alcotest.test_case "probe after one decide" `Quick
      test_probe_after_decide;
    Alcotest.test_case "empty queue resets probe" `Quick
      test_empty_queue_resets_probe;
    Helpers.qcheck prop_local_search_never_worse;
    Alcotest.test_case "local search finds a swap" `Quick
      test_local_search_finds_swap;
    Alcotest.test_case "order allocation bound" `Quick test_order_allocation;
  ]
