(* Tests for Search_state and the LDS/DDS/DFS search algorithms. *)

open Core

let r_star (j : Workload.Job.t) = j.runtime

(* Build a search state over an empty or partially busy machine. *)
let make_state ?(now = 0.0) ?(capacity = 8) ?(releases = [])
    ?(bound = Bound.fixed_hours 1e6) ?on_place ~heuristic jobs =
  let profile = Cluster.Profile.of_running ~now ~capacity releases in
  let ordered =
    Array.of_list (Sched.Priority.order heuristic ~now ~r_star jobs)
  in
  let durations = Array.map r_star ordered in
  let thresholds = Bound.thresholds bound ~now ~r_star ordered in
  Search_state.create ?on_place ~now ~profile ~jobs:ordered
    ~durations ~thresholds ()

(* Brute force: evaluate every permutation with a fresh state. *)
let brute_force_best state =
  let n = Search_state.job_count state in
  let best = ref None in
  List.iter
    (fun path ->
      Search_state.reset state;
      List.iteri
        (fun depth job ->
          Search_state.place state ~depth ~job)
        path;
      let obj = Search_state.leaf_objective state in
      (match !best with
      | None -> best := Some obj
      | Some incumbent ->
          if Objective.is_better ~candidate:obj ~incumbent then
            best := Some obj);
      Search_state.reset state)
    (Oracle.all_paths Search.Dfs ~n);
  Option.get !best

(* --- Search_state unit tests --- *)

let test_place_semantics () =
  (* two 8-node jobs on an 8-node machine: second starts after first *)
  let jobs =
    [ Helpers.job ~id:0 ~nodes:8 ~runtime:100.0 ();
      Helpers.job ~id:1 ~submit:1.0 ~nodes:8 ~runtime:50.0 () ]
  in
  let state = make_state ~heuristic:Sched.Priority.fcfs jobs in
  Search_state.place state ~depth:0 ~job:0;
  let s0 = Search_state.start_at state ~depth:0 in
  Search_state.place state ~depth:1 ~job:1;
  let s1 = Search_state.start_at state ~depth:1 in
  Alcotest.(check (float 1e-9)) "first starts now" 0.0 s0;
  Alcotest.(check (float 1e-9)) "second queued behind" 100.0 s1;
  Alcotest.(check int) "two nodes visited" 2 (Search_state.nodes_visited state);
  let leaf = Search_state.leaf_objective state in
  Alcotest.(check int) "objective counts both" 2 leaf.Objective.jobs

let test_place_order_changes_starts () =
  let jobs =
    [ Helpers.job ~id:0 ~nodes:8 ~runtime:100.0 ();
      Helpers.job ~id:1 ~submit:1.0 ~nodes:8 ~runtime:50.0 () ]
  in
  let state = make_state ~heuristic:Sched.Priority.fcfs jobs in
  Search_state.place state ~depth:0 ~job:1;
  let s1 = Search_state.start_at state ~depth:0 in
  Search_state.place state ~depth:1 ~job:0;
  let s0 = Search_state.start_at state ~depth:1 in
  Alcotest.(check (float 1e-9)) "reversed: short first" 0.0 s1;
  Alcotest.(check (float 1e-9)) "long waits 50s" 50.0 s0

let test_backfill_within_path () =
  (* A later job on the path can still start now if it fits around the
     earlier placements (the paper's "order of consideration is not the
     order of starting"). *)
  let jobs =
    [ Helpers.job ~id:0 ~nodes:8 ~runtime:100.0 ();
      Helpers.job ~id:1 ~submit:1.0 ~nodes:8 ~runtime:50.0 ();
      Helpers.job ~id:2 ~submit:2.0 ~nodes:8 ~runtime:10.0 () ]
  in
  let state =
    make_state ~capacity:16 ~heuristic:Sched.Priority.fcfs jobs
  in
  Search_state.place state ~depth:0 ~job:0;
  Search_state.place state ~depth:1 ~job:1;
  Search_state.place state ~depth:2 ~job:2;
  let s2 = Search_state.start_at state ~depth:2 in
  (* jobs 0 and 1 fill 16 nodes in [0,50); job 2 must wait for the
     first release at t=50 *)
  Alcotest.(check (float 1e-9)) "third waits for hole" 50.0 s2

let test_unplace_restores () =
  let jobs =
    [ Helpers.job ~id:0 ~nodes:4 (); Helpers.job ~id:1 ~submit:1.0 ~nodes:4 () ]
  in
  let state = make_state ~heuristic:Sched.Priority.fcfs jobs in
  Search_state.place state ~depth:0 ~job:0;
  Search_state.place state ~depth:1 ~job:1;
  Search_state.unplace state ~depth:1;
  Alcotest.(check int) "job 1 free again" 1 (Search_state.first_unused state);
  Search_state.place state ~depth:1 ~job:1;
  let s1 = Search_state.start_at state ~depth:1 in
  Alcotest.(check (float 1e-9)) "same start on re-place" 0.0 s1

let test_unused_walk () =
  let jobs =
    List.init 3 (fun id -> Helpers.job ~id ~submit:(float_of_int id) ())
  in
  let state = make_state ~heuristic:Sched.Priority.fcfs jobs in
  Search_state.place state ~depth:0 ~job:1;
  let first = Search_state.first_unused state in
  Alcotest.(check int) "rank 0" 0 first;
  let second = Search_state.next_unused state first in
  Alcotest.(check int) "rank 1" 2 second;
  Alcotest.(check int) "rank 2 is the sentinel" 3
    (Search_state.next_unused state second)

let test_start_now_set () =
  let jobs =
    [ Helpers.job ~id:0 ~nodes:8 ~runtime:100.0 ();
      Helpers.job ~id:1 ~submit:1.0 ~nodes:8 ~runtime:50.0 () ]
  in
  let state = make_state ~heuristic:Sched.Priority.fcfs jobs in
  let result = Search.run Search.Dfs ~budget:max_int state in
  let started =
    Search_state.start_now_set state ~order:result.Search.best_order
      ~starts:result.Search.best_starts
  in
  Alcotest.(check int) "exactly one starts now" 1 (List.length started)

(* An overdue running job's nodes come back at [now + overdue_grace]:
   the job placed there is not started now; the one placed at [now]
   is. *)
let test_start_now_set_exact () =
  let now = 500.0 in
  let running =
    Cluster.Running_set.create ~machine:(Cluster.Machine.v ~nodes:8)
  in
  Cluster.Running_set.add running
    {
      Cluster.Running_set.job = Helpers.job ~id:9 ~nodes:4 ~runtime:560.0 ();
      start = 0.0;
      finish = now +. 60.0;
      est_finish = now -. 100.0;
    };
  let jobs =
    [| Helpers.job ~id:0 ~nodes:4 ~runtime:100.0 ();
       Helpers.job ~id:1 ~submit:1.0 ~nodes:4 ~runtime:100.0 () |]
  in
  let state =
    Search_state.create ~now
      ~profile:(Cluster.Running_set.profile running ~now)
      ~jobs ~durations:(Array.map r_star jobs)
      ~thresholds:(Array.make 2 1e9) ()
  in
  Search_state.place state ~depth:0 ~job:0;
  Search_state.place state ~depth:1 ~job:1;
  let starts = Array.init 2 (fun depth -> Search_state.start_at state ~depth) in
  Alcotest.(check (float 0.0)) "first job now" now starts.(0);
  Alcotest.(check (float 0.0)) "second job at the grace's end"
    (now +. Cluster.Running_set.overdue_grace) starts.(1);
  Alcotest.(check (list int)) "only the job placed at now starts" [ 0 ]
    (List.map
       (fun (j : Workload.Job.t) -> j.id)
       (Search_state.start_now_set state ~order:[| 0; 1 |] ~starts))

(* --- Search algorithm tests --- *)

let random_jobs rng n =
  List.init n (fun id ->
      Helpers.job ~id
        ~submit:(Simcore.Rng.float rng 1000.0)
        ~nodes:(1 + Simcore.Rng.int rng 8)
        ~runtime:(60.0 +. Simcore.Rng.float rng 10000.0)
        ())

let random_releases rng =
  List.init (Simcore.Rng.int rng 3) (fun _ ->
      (1200.0 +. Simcore.Rng.float rng 5000.0, 1 + Simcore.Rng.int rng 3))

(* [create] takes the profile it is given and [Search.run] hands it back
   as it was, aborted or exhausted. *)
let test_search_restores_owned_profile () =
  let rng = Simcore.Rng.create ~seed:5 in
  let jobs = random_jobs rng 6 in
  List.iter
    (fun budget ->
      let now = 1100.0 in
      let profile =
        Cluster.Profile.of_running ~now ~capacity:8 (random_releases rng)
      in
      let before = Cluster.Profile.segments profile in
      let ordered =
        Array.of_list
          (Sched.Priority.order Sched.Priority.lxf ~now ~r_star jobs)
      in
      let state =
        Search_state.create ~now ~profile ~jobs:ordered
          ~durations:(Array.map r_star ordered)
          ~thresholds:(Array.make 6 1800.0) ()
      in
      ignore (Search.run Search.Dds ~budget state);
      Alcotest.(check bool)
        (Printf.sprintf "budget %d segments restored" budget)
        true
        (Cluster.Profile.segments profile = before);
      Alcotest.(check int) "trail unwound" 0
        (Cluster.Profile.trail_length profile))
    [ 50; max_int ]

(* In a build with asserts (dev), the unused list alone catches placing
   a job twice and unplacing an empty depth. *)
let test_misuse_asserts () =
  let asserts_on =
    try assert (Sys.opaque_identity false); false
    with Assert_failure _ -> true
  in
  if asserts_on then begin
    let state =
      make_state ~heuristic:Sched.Priority.fcfs
        [ Helpers.job ~id:0 (); Helpers.job ~id:1 ~submit:1.0 () ]
    in
    let trips f =
      match f () with () -> false | exception Assert_failure _ -> true
    in
    Alcotest.(check bool) "unplace of an empty depth" true
      (trips (fun () -> Search_state.unplace state ~depth:0));
    Search_state.place state ~depth:0 ~job:1;
    Alcotest.(check bool) "place of a placed job" true
      (trips (fun () -> Search_state.place state ~depth:1 ~job:1));
    Search_state.place state ~depth:1 ~job:0;
    Search_state.unplace state ~depth:1;
    Search_state.unplace state ~depth:0;
    Alcotest.(check int) "both unused again" 0 (Search_state.first_unused state)
  end

let exhaustive_equals_bruteforce algo seed =
  let rng = Simcore.Rng.create ~seed in
  let n = 2 + Simcore.Rng.int rng 4 in
  let jobs = random_jobs rng n in
  let releases = random_releases rng in
  let make () =
    make_state ~now:1100.0 ~releases ~bound:(Bound.fixed_hours 0.5)
      ~heuristic:Sched.Priority.lxf jobs
  in
  let result = Search.run algo ~budget:max_int (make ()) in
  let brute = brute_force_best (make ()) in
  Helpers.objective_equal result.Search.best brute && result.Search.exhausted

let prop_dfs_optimal =
  QCheck.Test.make ~name:"exhaustive DFS = brute force" ~count:60
    QCheck.int
    (exhaustive_equals_bruteforce Search.Dfs)

let prop_lds_optimal =
  QCheck.Test.make ~name:"exhaustive LDS = brute force" ~count:60
    QCheck.int
    (exhaustive_equals_bruteforce Search.Lds)

let prop_dds_optimal =
  QCheck.Test.make ~name:"exhaustive DDS = brute force" ~count:60
    QCheck.int
    (exhaustive_equals_bruteforce Search.Dds)

let prop_lds_original_optimal =
  QCheck.Test.make ~name:"exhaustive original LDS = brute force" ~count:40
    QCheck.int
    (exhaustive_equals_bruteforce Search.Lds_original)

let prop_prune_preserves_best =
  QCheck.Test.make ~name:"branch-and-bound preserves the optimum" ~count:60
    QCheck.int
    (fun seed ->
      let rng = Simcore.Rng.create ~seed in
      let n = 2 + Simcore.Rng.int rng 4 in
      let jobs = random_jobs rng n in
      let make () =
        make_state ~now:1100.0 ~bound:(Bound.fixed_hours 0.5)
          ~heuristic:Sched.Priority.lxf jobs
      in
      let plain = Search.run Search.Dds ~budget:max_int (make ()) in
      let pruned =
        Search.run ~prune:true Search.Dds ~budget:max_int (make ())
      in
      Helpers.objective_equal plain.Search.best pruned.Search.best
      && pruned.Search.nodes_visited <= plain.Search.nodes_visited)

(* --- trail vs snapshot replay --- *)

(* Independent oracle for the trail: every placement the search makes
   (recorded through the [on_place] hook) must start exactly where a
   fresh copy of the base profile, with the current path prefix
   replayed by [earliest_start] + [reserve], says the job can start.
   Covers every algorithm and branching heuristic, exhaustive (n <= 5)
   or budget-truncated. *)
let trail_matches_snapshot_replay seed =
  let rng = Simcore.Rng.create ~seed in
  let n = 1 + Simcore.Rng.int rng 12 in
  let jobs = random_jobs rng n in
  let releases = random_releases rng in
  let budget =
    if n <= 5 then max_int else 200 + Simcore.Rng.int rng 1800
  in
  let now = 1100.0 in
  let base = Cluster.Profile.of_running ~now ~capacity:8 releases in
  List.for_all
    (fun algo ->
      List.for_all
        (fun heuristic ->
          let ordered =
            Array.of_list (Sched.Priority.order heuristic ~now ~r_star jobs)
          in
          let shape i =
            (ordered.(i).Workload.Job.nodes, Float.max 1.0 (r_star ordered.(i)))
          in
          let path = Array.make n (-1) in
          let agreed = ref true in
          let on_place ~depth ~job ~start =
            path.(depth) <- job;
            let p = Cluster.Profile.copy base in
            for d = 0 to depth - 1 do
              let nodes, duration = shape path.(d) in
              let at = Helpers.earliest_start p ~nodes ~duration in
              Cluster.Profile.reserve p ~at ~nodes ~duration
            done;
            let nodes, duration = shape job in
            if Helpers.earliest_start p ~nodes ~duration <> start then
              agreed := false
          in
          let state =
            make_state ~now ~releases ~bound:(Bound.fixed_hours 0.5) ~on_place
              ~heuristic jobs
          in
          ignore (Search.run algo ~budget state);
          !agreed)
        [ Sched.Priority.fcfs; Sched.Priority.lxf ])
    [ Search.Dfs; Search.Lds; Search.Lds_original; Search.Dds ]

let prop_trail_snapshot_equivalent =
  QCheck.Test.make
    ~name:"trail = snapshot (4 algorithms x 2 heuristics, n <= 12)"
    ~count:40 QCheck.int trail_matches_snapshot_replay

(* --- visit order vs the Tree_enum specification --- *)

(* The placements a walk over [paths] makes: each path re-places only
   what it does not share with the path before it. *)
let placements_of_paths paths =
  let rec shared a b =
    match (a, b) with
    | x :: a', y :: b' when x = y -> 1 + shared a' b'
    | _ -> 0
  in
  let _, placed =
    List.fold_left
      (fun (prev, acc) path ->
        let keep = shared prev path in
        let fresh =
          List.filteri (fun depth _ -> depth >= keep) path
          |> List.mapi (fun i job -> (keep + i, job))
        in
        (path, List.rev_append fresh acc))
      ([], []) paths
  in
  List.rev placed

(* Every (depth, job) the kernel places, in order, for an exhaustive
   unpruned search over [n] jobs, is the one the specification implies:
   the heuristic path, then each iteration of [Tree_enum] walked left
   to right (for DFS, the whole tree once after the heuristic path). *)
let visit_order_matches_spec seed =
  let rng = Simcore.Rng.create ~seed in
  let n = 1 + Simcore.Rng.int rng 6 in
  let jobs = random_jobs rng n in
  List.for_all
    (fun algo ->
      let placed = ref [] in
      let on_place ~depth ~job ~start:_ = placed := (depth, job) :: !placed in
      let state =
        make_state ~now:1100.0 ~on_place ~heuristic:Sched.Priority.lxf jobs
      in
      ignore (Search.run algo ~budget:max_int state);
      let heuristic_path = List.init n Fun.id in
      let expected =
        match algo with
        | Search.Dfs ->
            placements_of_paths [ heuristic_path ]
            @ placements_of_paths (Oracle.all_paths Search.Dfs ~n)
        | Search.Lds | Search.Lds_original | Search.Dds ->
            List.concat_map
              (fun iteration ->
                placements_of_paths
                  (Tree_enum.paths_in_iteration algo ~n ~iteration))
              (List.init n Fun.id)
      in
      List.rev !placed = expected)
    [ Search.Dfs; Search.Lds; Search.Lds_original; Search.Dds ]

let prop_visit_order_matches_spec =
  QCheck.Test.make ~name:"visit order = Tree_enum (4 algorithms, n <= 6)"
    ~count:60 QCheck.int visit_order_matches_spec

let test_reset_after_budget_spent () =
  (* A budget abort unwinds through Budget_spent and Search.run resets
     the state; reusing that state (with a cumulative budget, since the
     node counter survives reset) must behave exactly like a fresh
     one.  Regression: reset used to leave starts and partial
     objectives stale. *)
  let rng = Simcore.Rng.create ~seed:11 in
  let jobs = random_jobs rng 8 in
  let reused = make_state ~heuristic:Sched.Priority.lxf jobs in
  let r1 = Search.run Search.Dds ~budget:100 reused in
  Alcotest.(check bool) "first run aborted" false r1.Search.exhausted;
  for depth = 0 to 7 do
    Alcotest.(check int) "chosen cleared" (-1)
      (Search_state.chosen reused ~depth);
    Alcotest.(check (float 1e-9)) "start cleared" 0.0
      (Search_state.start_at reused ~depth);
    let partial = Search_state.partial reused ~depth in
    Alcotest.(check (float 1e-9)) "partial excess cleared" 0.0
      partial.Objective.excess;
    Alcotest.(check (float 1e-9)) "partial secondary cleared" 0.0
      partial.Objective.secondary_sum
  done;
  Alcotest.(check int) "unused list rebuilt" 0 (Search_state.first_unused reused);
  let r2 = Search.run Search.Dds ~budget:200 reused in
  let control =
    Search.run Search.Dds ~budget:100
      (make_state ~heuristic:Sched.Priority.lxf jobs)
  in
  Alcotest.(check int) "same nodes as a fresh state" 200
    r2.Search.nodes_visited;
  Alcotest.(check int) "same leaves as a fresh state"
    control.Search.leaves_evaluated r2.Search.leaves_evaluated;
  Alcotest.(check bool) "same best order as a fresh state" true
    (r2.Search.best_order = control.Search.best_order);
  Alcotest.(check bool) "same objective as a fresh state" true
    (Helpers.objective_equal r2.Search.best control.Search.best)

let test_budget_enforced () =
  let rng = Simcore.Rng.create ~seed:3 in
  let jobs = random_jobs rng 7 in
  let state = make_state ~heuristic:Sched.Priority.lxf jobs in
  let result = Search.run Search.Dds ~budget:50 state in
  Alcotest.(check bool) "stops at the budget" true
    (result.Search.nodes_visited <= 50);
  Alcotest.(check bool) "not exhausted" false result.Search.exhausted

let test_iteration0_exempt_from_budget () =
  let rng = Simcore.Rng.create ~seed:4 in
  let jobs = random_jobs rng 6 in
  let state = make_state ~heuristic:Sched.Priority.fcfs jobs in
  (* budget smaller than one full path: the heuristic path must still
     be evaluated *)
  let result = Search.run Search.Dds ~budget:2 state in
  Alcotest.(check int) "heuristic path evaluated" 1
    result.Search.leaves_evaluated;
  Alcotest.(check int) "best order complete" 6
    (Array.length result.Search.best_order)

let test_exhausted_leaf_count () =
  let rng = Simcore.Rng.create ~seed:5 in
  let jobs = random_jobs rng 4 in
  List.iter
    (fun (algo, expected) ->
      let state = make_state ~heuristic:Sched.Priority.fcfs jobs in
      let result = Search.run algo ~budget:max_int state in
      Alcotest.(check int)
        (Search.algorithm_name algo ^ " visits all leaves")
        expected result.Search.leaves_evaluated)
    [ (Search.Lds, 24); (Search.Dds, 24); (Search.Dfs, 25);
      (* original LDS revisits: 1 + (<=1: 7) + (<=2: 18) + (<=3: 24) *)
      (Search.Lds_original, 50) ]
(* DFS re-walks the iteration-0 heuristic path, hence 24 + 1. *)

let test_search_deterministic () =
  let rng = Simcore.Rng.create ~seed:6 in
  let jobs = random_jobs rng 8 in
  let run () =
    let state = make_state ~heuristic:Sched.Priority.lxf jobs in
    Search.run Search.Dds ~budget:500 state
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same nodes" a.Search.nodes_visited b.Search.nodes_visited;
  Alcotest.(check int) "same leaves" a.Search.leaves_evaluated
    b.Search.leaves_evaluated;
  Alcotest.(check bool) "same best order" true
    (a.Search.best_order = b.Search.best_order);
  Alcotest.(check bool) "same objective" true
    (Helpers.objective_equal a.Search.best b.Search.best)

let test_empty_state_rejected () =
  let state = make_state ~heuristic:Sched.Priority.fcfs [] in
  Alcotest.check_raises "no jobs" (Invalid_argument "Search.run: no waiting jobs")
    (fun () -> ignore (Search.run Search.Dds ~budget:10 state))

let test_dds_beats_lds_to_root_discrepancies () =
  (* With a tiny budget, DDS explores root discrepancies that LDS only
     reaches after exhausting deeper single discrepancies; build a case
     where the improvement hides behind a root discrepancy. *)
  let long = Helpers.job ~id:0 ~submit:0.0 ~nodes:8 ~runtime:10000.0 () in
  let jobs =
    long
    :: List.init 5 (fun i ->
           Helpers.job ~id:(i + 1)
             ~submit:(float_of_int (i + 1))
             ~nodes:1 ~runtime:60.0 ())
  in
  let state () =
    make_state ~now:10.0 ~capacity:8 ~bound:(Bound.Fixed 0.0)
      ~heuristic:Sched.Priority.fcfs jobs
  in
  (* budget: heuristic path (6) + one more path (<= 6 nodes) *)
  let dds = Search.run Search.Dds ~budget:13 (state ()) in
  let lds = Search.run Search.Lds ~budget:13 (state ()) in
  Alcotest.(check bool) "DDS at least as good under tiny budget" true
    (Helpers.objective_no_worse dds.Search.best lds.Search.best)

(* --- starts never fall just after the decision time --- *)

(* [Search_state.start_now_set] starts exactly the jobs placed at
   [now].  That is sound only if no placement starts inside
   [(now, now + overdue_grace)]: starts are segment boundaries, the
   running set releases nothing before [now + overdue_grace], and each
   placement lasts at least 1 s.  Running sets mix overdue jobs,
   estimated ends at or just after [now], and later ones; queues mix
   sub-second and long runtimes. *)
let starts_clear_of_now seed =
  let rng = Simcore.Rng.create ~seed in
  let now = 1000.0 +. Simcore.Rng.float rng 1000.0 in
  let machine = Cluster.Machine.v ~nodes:16 in
  let running = Cluster.Running_set.create ~machine in
  for id = 0 to Simcore.Rng.int rng 6 do
    let nodes = 1 + Simcore.Rng.int rng 4 in
    if nodes <= Cluster.Running_set.free_nodes running then begin
      let est_finish =
        match Simcore.Rng.int rng 5 with
        | 0 -> now -. Simcore.Rng.float rng 500.0 (* overdue *)
        | 1 -> now
        | 2 -> now +. Simcore.Rng.float rng 1e-3 (* inside the grace *)
        | 3 -> now +. Simcore.Rng.float rng 1.0
        | _ -> now +. Simcore.Rng.float rng 5000.0
      in
      let start = now -. 1000.0 in
      Cluster.Running_set.add running
        {
          Cluster.Running_set.job =
            Helpers.job ~id:(100 + id) ~nodes ~submit:start ~runtime:5000.0 ();
          start;
          finish = now +. 1.0;
          est_finish;
        }
    end
  done;
  let n = 1 + Simcore.Rng.int rng 7 in
  let jobs =
    List.init n (fun id ->
        Helpers.job ~id
          ~submit:(Simcore.Rng.float rng now)
          ~nodes:(1 + Simcore.Rng.int rng 16)
          ~runtime:
            (if Simcore.Rng.int rng 3 = 0 then Simcore.Rng.float rng 1.0
             else 1.0 +. Simcore.Rng.float rng 7200.0)
          ())
  in
  let ordered =
    Array.of_list (Sched.Priority.order Sched.Priority.lxf ~now ~r_star jobs)
  in
  let clear = ref true in
  let check s =
    if not (s = now || s >= now +. Cluster.Running_set.overdue_grace) then
      clear := false
  in
  let state =
    Search_state.create
      ~on_place:(fun ~depth:_ ~job:_ ~start -> check start)
      ~now
      ~profile:(Cluster.Running_set.profile running ~now)
      ~jobs:ordered ~durations:(Array.map r_star ordered)
      ~thresholds:(Bound.thresholds Bound.dynamic ~now ~r_star ordered)
      ()
  in
  let algo =
    [| Search.Dfs; Search.Lds; Search.Lds_original; Search.Dds |].(
      Simcore.Rng.int rng 4)
  in
  let result = Search.run algo ~budget:(1 + Simcore.Rng.int rng 500) state in
  Array.iter check result.Search.best_starts;
  !clear

let prop_starts_clear_of_now =
  QCheck.Test.make ~name:"starts are now or past the overdue grace"
    ~count:300 QCheck.int starts_clear_of_now

let suite =
  [
    Alcotest.test_case "place semantics" `Quick test_place_semantics;
    Alcotest.test_case "order changes starts" `Quick
      test_place_order_changes_starts;
    Alcotest.test_case "backfill within path" `Quick test_backfill_within_path;
    Alcotest.test_case "unplace restores" `Quick test_unplace_restores;
    Alcotest.test_case "unused-list walk" `Quick test_unused_walk;
    Alcotest.test_case "start_now_set" `Quick test_start_now_set;
    Helpers.qcheck prop_dfs_optimal;
    Helpers.qcheck prop_lds_optimal;
    Helpers.qcheck prop_dds_optimal;
    Helpers.qcheck prop_lds_original_optimal;
    Helpers.qcheck prop_prune_preserves_best;
    Helpers.qcheck prop_trail_snapshot_equivalent;
    Alcotest.test_case "reset after budget abort" `Quick
      test_reset_after_budget_spent;
    Alcotest.test_case "budget enforced" `Quick test_budget_enforced;
    Alcotest.test_case "iteration 0 exempt" `Quick
      test_iteration0_exempt_from_budget;
    Alcotest.test_case "exhausted leaf counts" `Quick test_exhausted_leaf_count;
    Alcotest.test_case "search deterministic" `Quick test_search_deterministic;
    Alcotest.test_case "empty state rejected" `Quick test_empty_state_rejected;
    Alcotest.test_case "DDS vs LDS under tiny budget" `Quick
      test_dds_beats_lds_to_root_discrepancies;
    Helpers.qcheck prop_visit_order_matches_spec;
    Alcotest.test_case "start_now_set is exact" `Quick test_start_now_set_exact;
    Alcotest.test_case "search restores its profile" `Quick
      test_search_restores_owned_profile;
    Alcotest.test_case "misuse trips asserts" `Quick test_misuse_asserts;
    Helpers.qcheck prop_starts_clear_of_now;
  ]
