(* Tests for Cluster.Machine and Cluster.Running_set. *)

open Cluster

let entry ?(id = 0) ?(nodes = 4) ?(start = 0.0) ?(runtime = 100.0) ?est ()
    =
  let job = Helpers.job ~id ~nodes ~runtime () in
  {
    Running_set.job;
    finish = start +. runtime;
    est_finish = start +. Option.value est ~default:runtime;
  }

let pop_id rs = (Running_set.pop_finished rs).Running_set.job.Workload.Job.id

let test_machine () =
  Alcotest.(check int) "titan nodes" 128 Machine.titan.Machine.nodes;
  Alcotest.check_raises "at least one node"
    (Invalid_argument "Machine.v: nodes must be >= 1") (fun () ->
      ignore (Machine.v ~nodes:0));
  let m = Machine.v ~nodes:8 in
  Alcotest.(check bool) "fits" true (Machine.fits m (Helpers.job ~nodes:8 ()));
  Alcotest.(check bool) "too wide" false
    (Machine.fits m (Helpers.job ~nodes:9 ()))

let test_running_set_accounting () =
  let rs = Running_set.create ~machine:(Machine.v ~nodes:16) in
  Alcotest.(check int) "starts empty" 0 (Running_set.count rs);
  Running_set.add rs (entry ~id:0 ~nodes:4 ());
  Running_set.add rs (entry ~id:1 ~nodes:8 ());
  Alcotest.(check int) "busy" 12 (Running_set.busy_nodes rs);
  Alcotest.(check int) "free" 4 (Running_set.free_nodes rs);
  Alcotest.(check int) "count" 2 (Running_set.count rs);
  (* equal finishes: the first added leaves first *)
  let e = Running_set.pop_finished rs in
  Alcotest.(check int) "removed job id" 0 e.Running_set.job.Workload.Job.id;
  Alcotest.(check int) "free after remove" 8 (Running_set.free_nodes rs)

let test_running_set_rejects () =
  let rs = Running_set.create ~machine:(Machine.v ~nodes:8) in
  Running_set.add rs (entry ~id:0 ~nodes:8 ());
  Alcotest.check_raises "duplicate id"
    (Invalid_argument "Running_set.add: job 0 already running") (fun () ->
      Running_set.add rs (entry ~id:0 ~nodes:1 ()));
  Alcotest.check_raises "oversubscription"
    (Invalid_argument "Running_set.add: job 1 oversubscribes machine")
    (fun () -> Running_set.add rs (entry ~id:1 ~nodes:1 ()))

let test_releases () =
  let rs = Running_set.create ~machine:(Machine.v ~nodes:16) in
  Running_set.add rs (entry ~id:0 ~nodes:4 ~start:0.0 ~runtime:100.0 ());
  Running_set.add rs (entry ~id:1 ~nodes:2 ~start:0.0 ~runtime:50.0 ());
  let releases = List.sort compare (Running_set.releases rs ~now:10.0) in
  Alcotest.(check (list (pair (float 0.0) int)))
    "estimated ends with widths" [ (50.0, 2); (100.0, 4) ] releases

let test_releases_clamp_past_estimates () =
  let rs = Running_set.create ~machine:(Machine.v ~nodes:16) in
  let e = { (entry ~id:0 ~nodes:4 ~start:0.0 ~runtime:100.0 ()) with
            Running_set.est_finish = 5.0 }
  in
  Running_set.add rs e;
  (* at now = 10 the estimate has expired but the job still runs *)
  match Running_set.releases rs ~now:10.0 with
  | [ (t, nodes) ] ->
      Alcotest.(check int) "nodes" 4 nodes;
      Alcotest.(check bool) "release strictly after now" true (t > 10.0)
  | other ->
      Alcotest.failf "expected one release, got %d" (List.length other)

(* The departure order the engine reads: earliest true finish first,
   whatever the estimates say, and equal finishes in start order. *)
let test_departures_in_finish_order () =
  let rs = Running_set.create ~machine:(Machine.v ~nodes:16) in
  Running_set.add rs (entry ~id:0 ~runtime:5.0 ~est:1.0 ());
  Running_set.add rs (entry ~id:1 ~runtime:1.0 ~est:9.0 ());
  Running_set.add rs (entry ~id:2 ~runtime:3.0 ());
  Alcotest.(check (float 0.0)) "next finish" 1.0 (Running_set.next_finish rs);
  let popped = List.init 3 (fun _ -> pop_id rs) in
  Alcotest.(check (list int)) "finish order" [ 1; 2; 0 ] popped;
  Alcotest.(check int) "drained" 0 (Running_set.count rs);
  Alcotest.(check int) "nodes freed" 0 (Running_set.busy_nodes rs)

let test_equal_finishes_in_start_order () =
  let rs = Running_set.create ~machine:(Machine.v ~nodes:16) in
  List.iter
    (fun (id, start) ->
      Running_set.add rs (entry ~id ~nodes:1 ~start ~runtime:(2.0 -. start) ()))
    [ (7, 0.0); (3, 0.5); (5, 1.0); (1, 1.5) ];
  Running_set.add rs (entry ~id:9 ~runtime:1.0 ());
  let popped = List.init 5 (fun _ -> pop_id rs) in
  Alcotest.(check (list int)) "start order at equal finish" [ 9; 7; 3; 5; 1 ]
    popped

let test_next_finish_and_empty_pop () =
  let rs = Running_set.create ~machine:(Machine.v ~nodes:16) in
  Alcotest.(check (float 0.0)) "empty" infinity (Running_set.next_finish rs);
  Running_set.add rs (entry ~id:0 ~runtime:9.0 ());
  Alcotest.(check (float 0.0)) "next" 9.0 (Running_set.next_finish rs);
  Alcotest.(check int) "popped" 0 (pop_id rs);
  Alcotest.(check (float 0.0)) "after the last pop" infinity
    (Running_set.next_finish rs);
  Alcotest.check_raises "pop when empty"
    (Invalid_argument "Running_set.pop_finished: nothing running") (fun () ->
      ignore (Running_set.pop_finished rs))

(* The engine polls [next_finish] and pops at every departure: once
   the set's arrays have grown, that path allocates nothing, so no
   per-event record or per-poll option can creep back in. *)
let test_departure_path_allocates_nothing () =
  let rs = Running_set.create ~machine:(Machine.v ~nodes:128) in
  let entries =
    Array.init 2000 (fun id ->
        let start = Float.of_int id in
        entry ~id ~nodes:1 ~start
          ~runtime:(Float.of_int (1 + (id * 7919 mod 40)))
          ~est:(Float.of_int (1 + (id * 104729 mod 50)))
          ())
  in
  for i = 0 to 39 do
    Running_set.add rs entries.(i)
  done;
  let churn lo hi =
    for i = lo to hi - 1 do
      Running_set.add rs entries.(i);
      if Running_set.next_finish rs < infinity then
        ignore (Sys.opaque_identity (Running_set.pop_finished rs))
    done
  in
  churn 40 1000;
  (* warm-up *)
  let before = Gc.minor_words () in
  churn 1000 2000;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "still running" 40 (Running_set.count rs);
  Alcotest.(check (float 0.0)) "minor words for 1000 add + pop" 0.0 words

(* Property: after every step of a random start/pop/advance
   sequence, (1) the profile built from the maintained release order
   ([Policy.profile_of], via [Running_set.profile]) equals the
   reference built from [releases], floats included; (2) each
   [pop_finished] returns the head of a stable sort by [finish] of the
   running jobs in start order; (3) [count], [busy_nodes] and
   [next_finish] agree with that list.  Estimated ends and true
   finishes sit on coarse grids so many tie, the clock advances past
   estimates so overdue jobs exercise the R*=pred clamp, and narrow
   jobs let more than 32 run at once so the arrays grow. *)
type op = Start of int * int * int | Pop | Advance of int

let ops_arbitrary =
  let gen =
    QCheck.Gen.(
      pair (16 -- 128)
        (list_size (1 -- 150)
           (frequency
              [
                ( 4,
                  map3 (fun n e f -> Start (n, e, f)) (1 -- 4) (0 -- 12)
                    (1 -- 6) );
                ( 2,
                  map3 (fun n e f -> Start (n, e, f)) (1 -- 32) (0 -- 12)
                    (1 -- 6) );
                (4, return Pop);
                (2, map (fun d -> Advance d) (0 -- 8));
              ])))
  in
  let print (nodes, ops) =
    Printf.sprintf "nodes=%d [%s]" nodes
      (String.concat "; "
         (List.map
            (function
              | Start (n, e, f) -> Printf.sprintf "Start(%d,%d,%d)" n e f
              | Pop -> "Pop"
              | Advance d -> Printf.sprintf "Advance %d" d)
            ops))
  in
  QCheck.make ~print gen

let prop_maintained_profile_matches_reference =
  QCheck.Test.make ~name:"maintained profile = of_running reference"
    ~count:300 ops_arbitrary (fun (capacity, ops) ->
      let rs = Running_set.create ~machine:(Machine.v ~nodes:capacity) in
      (* [live]: (id, nodes, finish) of the running jobs, start order *)
      let now = ref 0.0 and next_id = ref 0 and live = ref [] in
      let next_departure () =
        List.hd
          (List.stable_sort
             (fun (_, _, a) (_, _, b) -> Float.compare a b)
             !live)
      in
      let agrees () =
        let ctx =
          {
            Sched.Policy.now = !now;
            waiting = [];
            running = rs;
            r_star = (fun j -> j.Workload.Job.requested);
          }
        in
        let reference =
          Profile.of_running ~now:!now ~capacity
            (Running_set.releases rs ~now:!now)
        in
        let maintained = Sched.Policy.profile_of ctx in
        (* both profiles come from [of_sorted_releases], so also check
           what it promises without the other: normalized segments, and
           a first segment at [now] with the free nodes free (the
           premise of [Backfill.pass]'s width check) *)
        Profile.segments maintained = Profile.segments reference
        && Profile.invariant maintained
        && (match Profile.segments maintained with
           | (start, free) :: _ ->
               start = !now && free = Running_set.free_nodes rs
           | [] -> false)
        && Running_set.count rs = List.length !live
        && Running_set.busy_nodes rs
           = List.fold_left (fun acc (_, n, _) -> acc + n) 0 !live
        && Running_set.next_finish rs
           = (match !live with
             | [] -> infinity
             | _ ->
                 let _, _, f = next_departure () in
                 f)
      in
      List.for_all
        (fun op ->
          (match op with
          | Start (nodes, e, f) ->
              if nodes <= Running_set.free_nodes rs then begin
                let id = !next_id in
                incr next_id;
                (* ends on a 100 s grid, [e = 0] may already be past;
                   true finishes in 600 s steps from the same base *)
                let grid = Float.floor (!now /. 100.0) in
                let est_finish = (grid +. Float.of_int e) *. 100.0 in
                let finish = (grid +. (6.0 *. Float.of_int f)) *. 100.0 in
                Running_set.add rs
                  {
                    (entry ~id ~nodes ~start:!now ()) with
                    Running_set.finish;
                    est_finish;
                  };
                live := !live @ [ (id, nodes, finish) ]
              end;
              true
          | Pop -> (
              match !live with
              | [] -> true
              | _ ->
                  let ((id, _, finish) as expected) = next_departure () in
                  let e = Running_set.pop_finished rs in
                  live := List.filter (( != ) expected) !live;
                  e.Running_set.job.Workload.Job.id = id
                  && e.Running_set.finish = finish)
          | Advance d ->
              now := !now +. (50.0 *. Float.of_int d);
              true)
          && agrees ())
        ops)

let suite =
  [
    Alcotest.test_case "machine" `Quick test_machine;
    Alcotest.test_case "running set accounting" `Quick
      test_running_set_accounting;
    Alcotest.test_case "running set rejects" `Quick test_running_set_rejects;
    Alcotest.test_case "releases give estimated ends" `Quick
      test_releases;
    Alcotest.test_case "releases clamp past estimates" `Quick
      test_releases_clamp_past_estimates;
    Alcotest.test_case "departures in finish order" `Quick
      test_departures_in_finish_order;
    Alcotest.test_case "equal finishes leave in start order" `Quick
      test_equal_finishes_in_start_order;
    Alcotest.test_case "next_finish and empty pop" `Quick
      test_next_finish_and_empty_pop;
    Alcotest.test_case "departure path allocates nothing" `Quick
      test_departure_path_allocates_nothing;
    Helpers.qcheck prop_maintained_profile_matches_reference;
  ]
