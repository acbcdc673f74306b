(* Tests for Core.Objective and Core.Bound.  The objective's per-job
   formula lives in Search_state.place, so it is checked there, by
   placing jobs on a search state and reading its partial objectives. *)

open Core

(* A search state at [now] on an empty 8-node machine, one 1-node job
   per [(wait, threshold, est_runtime)]: each was submitted [wait]
   seconds before [now], so placing it starts it at [now] and its wait
   is exactly [wait]. *)
let state ?secondary specs =
  let now = 2e6 in
  let jobs =
    Array.of_list
      (List.mapi
         (fun id (wait, _, _) -> Helpers.job ~id ~submit:(now -. wait) ())
         specs)
  in
  let column f = Array.of_list (List.map f specs) in
  Search_state.create ?secondary ~now
    ~profile:(Cluster.Profile.create ~now ~capacity:8)
    ~jobs
    ~durations:(column (fun (_, _, r) -> r))
    ~thresholds:(column (fun (_, th, _) -> th))
    ()

(* Place the jobs in index order; the partial objectives, one per depth. *)
let partials st =
  List.init (Search_state.job_count st) (fun depth ->
      Search_state.place st ~depth ~job:depth;
      Search_state.partial st ~depth)

let test_zero () =
  let empty = { Objective.excess = 0.0; secondary_sum = 0.0; jobs = 0 } in
  (* an empty value's average is 0, below any job's contribution *)
  Alcotest.(check bool) "avg slowdown empty" true
    (Objective.is_better ~candidate:empty
       ~incumbent:{ empty with secondary_sum = 1.0; jobs = 1 })

let test_add () =
  match
    partials (state [ (7200.0, 3600.0, 3600.0); (0.0, 3600.0, 3600.0) ])
  with
  | [ o; o2 ] ->
      Alcotest.(check (float 1e-9)) "excess" 3600.0 o.Objective.excess;
      Alcotest.(check (float 1e-9)) "slowdown" 3.0 o.Objective.secondary_sum;
      Alcotest.(check (float 1e-9)) "excess unchanged" 3600.0
        o2.Objective.excess;
      Alcotest.(check (float 1e-9)) "slowdown sum: average 2" 4.0
        o2.Objective.secondary_sum;
      Alcotest.(check int) "jobs" 2 o2.Objective.jobs
  | _ -> assert false

let test_add_short_job_floor () =
  let o = List.hd (partials (state [ (120.0, 1e9, 10.0) ])) in
  (* one-minute floor: 1 + 120/60 = 3 *)
  Alcotest.(check (float 1e-9)) "floored slowdown" 3.0 o.Objective.secondary_sum

(* The wait is to the start the path gives the job, not to [now]: the
   second full-machine job waits behind the first. *)
let test_wait_to_placed_start () =
  let now = 1000.0 in
  let jobs =
    [| Helpers.job ~id:0 ~submit:now ~nodes:8 ();
       Helpers.job ~id:1 ~submit:(now -. 600.0) ~nodes:8 () |]
  in
  let st =
    Search_state.create ~now
      ~profile:(Cluster.Profile.create ~now ~capacity:8)
      ~jobs ~durations:[| 3600.0; 3600.0 |] ~thresholds:[| 1000.0; 1000.0 |]
      ()
  in
  match partials st with
  | [ _; o ] ->
      Alcotest.(check (float 1e-9)) "start" (now +. 3600.0)
        (Search_state.start_at st ~depth:1);
      Alcotest.(check (float 1e-9)) "excess of the 4200 s wait" 3200.0
        o.Objective.excess;
      Alcotest.(check (float 1e-9)) "slowdowns"
        (1.0 +. 1.0 +. (4200.0 /. 3600.0))
        o.Objective.secondary_sum
  | _ -> assert false

let test_hierarchical_compare () =
  let mk excess slowdown =
    { Objective.excess; secondary_sum = slowdown; jobs = 2 }
  in
  (* lower excess wins regardless of slowdown *)
  Alcotest.(check bool) "excess dominates" true
    (Objective.is_better ~candidate:(mk 10.0 100.0) ~incumbent:(mk 20.0 2.0));
  (* equal excess: slowdown breaks the tie *)
  Alcotest.(check bool) "slowdown tie-break" true
    (Objective.is_better ~candidate:(mk 10.0 5.0) ~incumbent:(mk 10.0 6.0));
  Alcotest.(check bool) "equal values" true
    (Helpers.objective_equal (mk 10.0 5.0) (mk 10.0 5.0));
  (* float-noise-sized excess difference must not override slowdown *)
  Alcotest.(check bool) "tolerant to excess noise" true
    (Objective.is_better
       ~candidate:(mk (10.0 +. 1e-12) 5.0)
       ~incumbent:(mk 10.0 6.0))

let test_secondary_avg_wait () =
  let o =
    List.hd
      (partials
         (state ~secondary:Objective.Avg_wait [ (7200.0, 1e9, 3600.0) ]))
  in
  Alcotest.(check (float 1e-9)) "wait accumulated raw" 7200.0
    o.Objective.secondary_sum;
  Alcotest.(check (float 1e-9)) "min contribution slowdown" 1.0
    (Objective.min_contribution Objective.Bounded_slowdown);
  Alcotest.(check (float 1e-9)) "min contribution wait" 0.0
    (Objective.min_contribution Objective.Avg_wait)

let test_bound_fixed () =
  let jobs = [| Helpers.job ~id:0 (); Helpers.job ~id:1 ~submit:5.0 () |] in
  let ths =
    Bound.thresholds (Bound.fixed_hours 50.0) ~now:100.0
      ~r_star:(fun j -> j.Workload.Job.runtime)
      jobs
  in
  Array.iter
    (fun t ->
      Alcotest.(check (float 1e-9)) "fixed bound" (50.0 *. 3600.0) t)
    ths

let test_bound_dynamic () =
  let jobs =
    [| Helpers.job ~id:0 ~submit:10.0 (); Helpers.job ~id:1 ~submit:40.0 () |]
  in
  let ths =
    Bound.thresholds Bound.dynamic ~now:100.0
      ~r_star:(fun j -> j.Workload.Job.runtime)
      jobs
  in
  (* longest current wait = 100 - 10 = 90, applied to every job *)
  Array.iter
    (fun t -> Alcotest.(check (float 1e-9)) "dynamic bound" 90.0 t)
    ths

let test_bound_dynamic_empty_queue () =
  let ths =
    Bound.thresholds Bound.dynamic ~now:100.0
      ~r_star:(fun j -> j.Workload.Job.runtime)
      [||]
  in
  Alcotest.(check int) "no thresholds" 0 (Array.length ths)

let test_bound_runtime_scaled () =
  let jobs =
    [| Helpers.job ~id:0 ~runtime:60.0 (); Helpers.job ~id:1 ~runtime:36000.0 () |]
  in
  let b = Bound.Runtime_scaled { floor = 3600.0; factor = 2.0 } in
  let ths =
    Bound.thresholds b ~now:0.0 ~r_star:(fun j -> j.Workload.Job.runtime) jobs
  in
  Alcotest.(check (float 1e-9)) "floor applies" 3600.0 ths.(0);
  Alcotest.(check (float 1e-9)) "factor applies" 72000.0 ths.(1)

let test_bound_names () =
  Alcotest.(check string) "dynB" "dynB" (Bound.name Bound.dynamic);
  Alcotest.(check string) "fixed" "w=50h" (Bound.name (Bound.fixed_hours 50.0))

let prop_add_monotone =
  let spec =
    QCheck.(triple (float_bound_inclusive 1e6) (float_bound_inclusive 1e6)
              (float_bound_exclusive 1e5))
  in
  QCheck.Test.make ~name:"objective components are monotone" ~count:300
    (QCheck.pair spec spec)
    (fun ((w0, th0, r0), (wait, threshold, runtime)) ->
      match
        partials
          (state [ (w0, th0, r0 +. 1.0); (wait, threshold, runtime +. 1.0) ])
      with
      | [ base; o ] ->
          o.Objective.excess >= base.Objective.excess
          && o.Objective.secondary_sum >= base.Objective.secondary_sum +. 1.0
          && o.Objective.jobs = base.Objective.jobs + 1
      | _ -> false)

(* Jobs that all start at [now] contribute independently: the leaf
   objective is the sum of one-job objectives. *)
let prop_leaf_sums_jobs =
  let spec =
    QCheck.(triple (float_bound_inclusive 1e5) (float_bound_inclusive 1e5)
              (float_bound_inclusive 1e4))
  in
  QCheck.Test.make ~name:"leaf objective sums one-job objectives" ~count:200
    QCheck.(list_of_size Gen.(1 -- 8) spec)
    (fun specs ->
      let st = state specs in
      ignore (partials st);
      let leaf = Search_state.leaf_objective st in
      let ones = List.map (fun sp -> List.hd (partials (state [ sp ]))) specs in
      let sum f = List.fold_left (fun acc o -> acc +. f o) 0.0 ones in
      let close a b =
        Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs a)
      in
      leaf.Objective.jobs = List.length specs
      && close leaf.Objective.excess (sum (fun o -> o.Objective.excess))
      && close leaf.Objective.secondary_sum
           (sum (fun o -> o.Objective.secondary_sum)))

let suite =
  [
    Alcotest.test_case "zero" `Quick test_zero;
    Alcotest.test_case "add" `Quick test_add;
    Alcotest.test_case "short-job floor" `Quick test_add_short_job_floor;
    Alcotest.test_case "wait to the placed start" `Quick
      test_wait_to_placed_start;
    Alcotest.test_case "hierarchical compare" `Quick test_hierarchical_compare;
    Alcotest.test_case "secondary = avg wait" `Quick test_secondary_avg_wait;
    Alcotest.test_case "fixed bound" `Quick test_bound_fixed;
    Alcotest.test_case "dynamic bound" `Quick test_bound_dynamic;
    Alcotest.test_case "dynamic bound, empty queue" `Quick
      test_bound_dynamic_empty_queue;
    Alcotest.test_case "runtime-scaled bound" `Quick test_bound_runtime_scaled;
    Alcotest.test_case "bound names" `Quick test_bound_names;
    Helpers.qcheck prop_add_monotone;
    Helpers.qcheck prop_leaf_sums_jobs;
  ]
