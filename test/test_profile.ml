(* Unit and property tests for the availability profile. *)

open Cluster

let check_segments msg expected p =
  Alcotest.(check (list (pair (float 1e-12) int))) msg expected
    (Profile.segments p)

let test_create () =
  let p = Profile.create ~now:10.0 ~capacity:128 in
  Alcotest.(check int) "one segment" 1 (Profile.segment_count p);
  check_segments "all free from now" [ (10.0, 128) ] p;
  Alcotest.(check bool) "invariant" true (Profile.invariant p)

let test_of_running () =
  (* capacity 10, jobs releasing 4 nodes at t=100 and 2 at t=50 *)
  let p = Profile.of_running ~now:0.0 ~capacity:10 [ (100.0, 4); (50.0, 2) ] in
  check_segments "free now, after the first release, after both"
    [ (0.0, 4); (50.0, 6); (100.0, 10) ] p;
  Alcotest.(check bool) "invariant" true (Profile.invariant p)

let test_of_running_merges_equal_times () =
  let p = Profile.of_running ~now:0.0 ~capacity:10 [ (50.0, 2); (50.0, 3) ] in
  check_segments "one release of both" [ (0.0, 5); (50.0, 10) ] p

let test_of_running_past_release_ignored () =
  let p = Profile.of_running ~now:100.0 ~capacity:8 [ (50.0, 4) ] in
  check_segments "released already" [ (100.0, 8) ] p

let test_of_running_oversubscribed () =
  Alcotest.check_raises "oversubscription rejected"
    (Invalid_argument "Profile.of_running: running jobs exceed capacity")
    (fun () ->
      ignore (Profile.of_running ~now:0.0 ~capacity:4 [ (10.0, 3); (10.0, 2) ]))

(* The builder writes normalized segments only because every release
   after [now] frees a node; one that frees none is refused, while a
   past one is dropped as before. *)
let test_of_running_empty_release () =
  Alcotest.check_raises "zero-node release rejected"
    (Invalid_argument "Profile.of_running: a release of fewer than one node")
    (fun () ->
      ignore (Profile.of_running ~now:0.0 ~capacity:4 [ (10.0, 3); (20.0, 0) ]));
  Alcotest.(check (list (pair (float 0.0) int)))
    "past release dropped" [ (50.0, 4) ]
    (Profile.segments (Profile.of_running ~now:50.0 ~capacity:4 [ (10.0, 0) ]))

let test_earliest_start_immediate () =
  let p = Profile.of_running ~now:0.0 ~capacity:10 [ (100.0, 4) ] in
  Alcotest.(check (float 1e-9)) "fits now" 0.0
    (Helpers.placed p ~nodes:6 ~duration:1000.0)

let test_earliest_start_waits_for_release () =
  let p = Profile.of_running ~now:0.0 ~capacity:10 [ (100.0, 4) ] in
  Alcotest.(check (float 1e-9)) "must wait" 100.0
    (Helpers.placed p ~nodes:8 ~duration:1000.0)

let test_earliest_start_hole_too_short () =
  (* 6 nodes free until t=50 (then 4 until t=100): a 6-node 60s job
     cannot use the [0,50) hole *)
  let p = Profile.create ~now:0.0 ~capacity:10 in
  Profile.reserve p ~at:50.0 ~nodes:6 ~duration:50.0;
  Alcotest.(check (float 1e-9)) "skips short hole" 100.0
    (Helpers.placed p ~nodes:6 ~duration:60.0);
  Alcotest.(check (float 1e-9)) "short job uses hole" 0.0
    (Helpers.placed p ~nodes:6 ~duration:50.0)

let test_reserve_splits_segments () =
  let p = Profile.create ~now:0.0 ~capacity:10 in
  Profile.reserve p ~at:10.0 ~nodes:4 ~duration:20.0;
  check_segments "free before, during, after"
    [ (0.0, 10); (10.0, 6); (30.0, 10) ] p;
  Alcotest.(check bool) "invariant" true (Profile.invariant p)

let test_reserve_insufficient () =
  let p = Profile.of_running ~now:0.0 ~capacity:10 [ (100.0, 6) ] in
  Alcotest.check_raises "cannot oversubscribe"
    (Invalid_argument "Profile.reserve: insufficient free nodes") (fun () ->
      Profile.reserve p ~at:0.0 ~nodes:6 ~duration:10.0)

(* The floor of a profile with a dip: steps where the running minimum
   falls, and the fit answers it gives.  A floor starts at its
   profile's start, so each case builds the profile from that instant
   (the same dips, 7 nodes over [200, 300) and 9 over [400, 410)). *)
let test_floor () =
  let dipped ~now releases =
    let p = Profile.of_running ~now ~capacity:10 releases in
    Profile.reserve p ~at:(Float.max now 200.0) ~nodes:7
      ~duration:(300.0 -. Float.max now 200.0);
    Profile.reserve p ~at:400.0 ~nodes:9 ~duration:10.0;
    p
  in
  let times = Array.make 8 nan and free = Array.make 8 (-1) in
  let floor p =
    let n = Profile.floor p times free in
    List.init n (fun k -> (times.(k), free.(k)))
  in
  let steps = Alcotest.(list (pair (float 0.0) int)) in
  Alcotest.(check steps) "from the start" [ (0.0, 6); (200.0, 3); (400.0, 1) ]
    (floor (dipped ~now:0.0 [ (100.0, 4) ]));
  Alcotest.(check steps) "from a start after a release"
    [ (150.0, 10); (200.0, 3); (400.0, 1) ]
    (floor (dipped ~now:150.0 [ (100.0, 4) ]));
  Alcotest.(check steps) "from the dip" [ (250.0, 3); (400.0, 1) ]
    (floor (dipped ~now:250.0 []));
  let p = dipped ~now:150.0 [] in
  Profile.reserve p ~at:150.0 ~nodes:10 ~duration:10.0;
  Alcotest.(check steps) "stops at zero" [ (150.0, 0) ] (floor p);
  let p = Profile.of_running ~now:0.0 ~capacity:10 [ (100.0, 4) ] in
  Alcotest.(check bool) "fits" true
    (Helpers.fits_window p ~at:0.0 ~nodes:6 ~duration:1e6);
  Alcotest.(check bool) "does not fit" false
    (Helpers.fits_window p ~at:0.0 ~nodes:7 ~duration:200.0);
  Alcotest.(check bool) "fits if short enough window later" true
    (Helpers.fits_window p ~at:100.0 ~nodes:10 ~duration:50.0)

let test_copy_independent () =
  let p = Profile.create ~now:0.0 ~capacity:10 in
  let q = Profile.copy p in
  Profile.reserve p ~at:0.0 ~nodes:5 ~duration:100.0;
  check_segments "copy untouched" [ (0.0, 10) ] q

(* --- trail-based backtracking --- *)

let test_trail_undo_restores () =
  let p = Profile.of_running ~now:0.0 ~capacity:10 [ (100.0, 4) ] in
  let before = Profile.segments p in
  let m = Profile.mark p in
  Profile.reserve p ~at:0.0 ~nodes:3 ~duration:50.0;
  Alcotest.(check bool) "changed" false (Profile.segments p = before);
  Profile.undo_to p m;
  check_segments "restored exactly" before p;
  Alcotest.(check int) "trail rewound" 0 (Profile.trail_length p);
  Alcotest.(check bool) "invariant" true (Profile.invariant p)

let test_trail_finish_past_last_boundary () =
  (* reservation window extends beyond the last segment boundary: the
     final infinite segment is split at the finish time *)
  let p = Profile.create ~now:0.0 ~capacity:10 in
  Profile.reserve p ~at:0.0 ~nodes:3 ~duration:10.0;
  let before = Profile.segments p in
  let m = Profile.mark p in
  Profile.reserve p ~at:20.0 ~nodes:2 ~duration:1000.0;
  check_segments "split at finish"
    [ (0.0, 7); (10.0, 10); (20.0, 8); (1020.0, 10) ]
    p;
  Profile.undo_to p m;
  check_segments "restored exactly" before p

let test_trail_split_at_at () =
  (* reservation starting strictly inside a segment: split at [at] *)
  let p = Profile.create ~now:0.0 ~capacity:10 in
  let m = Profile.mark p in
  Profile.reserve p ~at:5.0 ~nodes:4 ~duration:10.0;
  check_segments "split at at" [ (0.0, 10); (5.0, 6); (15.0, 10) ] p;
  Profile.undo_to p m;
  check_segments "restored exactly" [ (0.0, 10) ] p

let test_trail_merge_both_ends () =
  (* the carved run ends up equal to both neighbours: two local merges
     recorded on the trail, both undone *)
  let p = Profile.create ~now:0.0 ~capacity:10 in
  Profile.reserve p ~at:0.0 ~nodes:4 ~duration:10.0;
  Profile.reserve p ~at:20.0 ~nodes:4 ~duration:10.0;
  let before = Profile.segments p in
  Alcotest.(check int) "four segments" 4 (List.length before);
  let m = Profile.mark p in
  Profile.reserve p ~at:10.0 ~nodes:4 ~duration:10.0;
  check_segments "merged with both neighbours" [ (0.0, 6); (30.0, 10) ] p;
  Profile.undo_to p m;
  check_segments "restored exactly" before p

let test_trail_nested_marks () =
  let p = Profile.create ~now:0.0 ~capacity:10 in
  let m0 = Profile.mark p in
  Profile.reserve p ~at:0.0 ~nodes:2 ~duration:10.0;
  let mid = Profile.segments p in
  let m1 = Profile.mark p in
  Profile.reserve p ~at:5.0 ~nodes:3 ~duration:10.0;
  Profile.undo_to p m1;
  check_segments "inner undone" mid p;
  Profile.undo_to p m0;
  check_segments "outer undone" [ (0.0, 10) ] p

let test_trail_invalid_mark () =
  let p = Profile.create ~now:0.0 ~capacity:10 in
  let m0 = Profile.mark p in
  Profile.reserve p ~at:0.0 ~nodes:2 ~duration:10.0;
  let m1 = Profile.mark p in
  Profile.undo_to p m0;
  Alcotest.check_raises "mark already undone past"
    (Invalid_argument "Profile.undo_to: mark not on the current trail")
    (fun () -> Profile.undo_to p m1)

let test_place_earliest_matches_two_step () =
  let p = Profile.of_running ~now:0.0 ~capacity:10 [ (100.0, 4); (50.0, 2) ] in
  let q = Profile.copy p in
  let s = Profile.place_earliest p ~nodes:6 ~duration:75.0 in
  let s' = Helpers.earliest_start q ~nodes:6 ~duration:75.0 in
  Profile.reserve q ~at:s' ~nodes:6 ~duration:75.0;
  Alcotest.(check (float 1e-9)) "same start" s' s;
  check_segments "same segments" (Profile.segments q) p

(* --- properties --- *)

(* Random placement plan: list of (nodes, duration). *)
let plan_gen =
  QCheck.Gen.(
    list_size (1 -- 25)
      (pair (1 -- 16) (map (fun d -> float_of_int (d + 1)) (0 -- 5000))))

let plan_arbitrary = QCheck.make plan_gen

(* Like [plan_gen], with durations on a 50 s grid, so windows often end
   exactly where a later segment begins. *)
let grid_plan_arbitrary =
  QCheck.make
    QCheck.Gen.(
      list_size (1 -- 25)
        (pair (1 -- 16) (map (fun d -> 50.0 *. float_of_int d) (1 -- 20))))

let prop_invariant_under_reserves =
  QCheck.Test.make ~name:"profile invariant under random placements"
    ~count:300 plan_arbitrary (fun plan ->
      let p = Profile.create ~now:0.0 ~capacity:16 in
      List.iter
        (fun (nodes, duration) ->
          ignore (Profile.place_earliest p ~nodes ~duration))
        plan;
      Profile.invariant p)

(* The start [place_earliest] picks, checked on the segments it was
   picked from by the naive window test. *)
let prop_earliest_start_is_feasible =
  QCheck.Test.make ~name:"earliest_start fits at its own answer" ~count:300
    grid_plan_arbitrary (fun plan ->
      let p = Profile.create ~now:0.0 ~capacity:16 in
      List.for_all
        (fun (nodes, duration) ->
          let before = Profile.segments p in
          let s = Profile.place_earliest p ~nodes ~duration in
          Helpers.fits_segments before ~at:s ~nodes ~duration)
        plan)

let prop_earliest_start_is_minimal =
  (* No segment boundary strictly before the start [place_earliest]
     picks admits the job: the start really is earliest among candidate
     times. *)
  QCheck.Test.make ~name:"earliest_start minimal over boundaries" ~count:200
    grid_plan_arbitrary (fun plan ->
      let p = Profile.create ~now:0.0 ~capacity:16 in
      List.for_all
        (fun (nodes, duration) ->
          let before = Profile.segments p in
          let s = Profile.place_earliest p ~nodes ~duration in
          not
            (List.exists
               (fun (b, _) ->
                 b < s && Helpers.fits_segments before ~at:b ~nodes ~duration)
               before))
        plan)

let prop_free_never_negative =
  QCheck.Test.make ~name:"free counts within [0, capacity]" ~count:300
    plan_arbitrary (fun plan ->
      let p = Profile.create ~now:0.0 ~capacity:16 in
      List.iter
        (fun (nodes, duration) ->
          ignore (Profile.place_earliest p ~nodes ~duration))
        plan;
      List.for_all (fun (_, free) -> free >= 0 && free <= 16)
        (Profile.segments p))

(* Oracle property for the trail: a random LIFO pattern of
   reservations and undos, each checked bit-for-bit against a
   [Profile.copy] snapshot taken at the mark.  [push] reserves at the
   earliest start of a random job (durations long enough to reach past
   the last boundary, starts falling both on and between boundaries),
   [pop] undoes; the trailing pops verify the whole stack unwinds. *)
let trail_op_gen =
  QCheck.Gen.(
    list_size (1 -- 40)
      (frequency
         [ (3, map2 (fun n d -> `Push (n, float_of_int (d + 1)))
                (1 -- 16) (0 -- 5000));
           (2, return `Pop) ]))

let trail_ops_arbitrary =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | `Push (n, d) -> Printf.sprintf "push(%d,%g)" n d
             | `Pop -> "pop")
           ops))
    trail_op_gen

let prop_trail_matches_copy_oracle =
  QCheck.Test.make ~name:"undo_to restores bit-for-bit (vs copy oracle)"
    ~count:300 trail_ops_arbitrary (fun ops ->
      let p = Profile.create ~now:0.0 ~capacity:16 in
      let stack = ref [] in
      let ok = ref true in
      let pop () =
        match !stack with
        | [] -> ()
        | (m, oracle) :: rest ->
            stack := rest;
            Profile.undo_to p m;
            ok :=
              !ok
              && Profile.segments p = Profile.segments oracle
              && Profile.invariant p
      in
      List.iter
        (function
          | `Push (nodes, duration) ->
              let oracle = Profile.copy p in
              let m = Profile.mark p in
              ignore (Profile.place_earliest p ~nodes ~duration);
              stack := (m, oracle) :: !stack
          | `Pop -> pop ())
        ops;
      while !stack <> [] do pop () done;
      !ok)

(* Against the naive scan of the segment list ([Helpers.earliest_start])
   followed by [reserve]. *)
let prop_place_earliest_equals_two_step =
  QCheck.Test.make ~name:"place_earliest = earliest_start; reserve"
    ~count:300 grid_plan_arbitrary (fun plan ->
      let p = Profile.create ~now:0.0 ~capacity:16 in
      let q = Profile.create ~now:0.0 ~capacity:16 in
      List.for_all
        (fun (nodes, duration) ->
          let s = Profile.place_earliest p ~nodes ~duration in
          let s' = Helpers.earliest_start q ~nodes ~duration in
          Profile.reserve q ~at:s' ~nodes ~duration;
          s = s' && Profile.segments p = Profile.segments q)
        plan)

(* Segment shifts.  [insert_raw], [delete_raw] and [undo_to]'s
   re-insert open or close a one-slot gap with an OCaml loop when few
   segments move and with [Array.blit] past the crossover.  A staircase
   profile (free counts 1, 2, ..., n at t = 0, 100, ...) lets a 1-node
   reservation insert or delete at any chosen index, so sweeping the
   index sweeps the shift length from n - 1 slots down to none, across
   the crossover in both directions.  Index 0 is the profile's start:
   reservations never begin before it and merges only look left, so
   index 1 and the last index are the reachable edges.  Each mutation
   is checked against the expected segment list and then undone back
   to a pre-mark copy. *)
let staircase n =
  Profile.of_running ~now:0.0 ~capacity:n
    (List.init (n - 1) (fun k -> (100.0 *. Float.of_int (k + 1), 1)))

let check_round_trip name p ~expected mutate =
  let before = Profile.copy p in
  let m = Profile.mark p in
  mutate ();
  Alcotest.(check (list (pair (float 0.0) int)))
    (name ^ ": mutated") expected (Profile.segments p);
  Alcotest.(check bool) (name ^ ": invariant") true (Profile.invariant p);
  Profile.undo_to p m;
  Alcotest.(check (list (pair (float 0.0) int)))
    (name ^ ": undone") (Profile.segments before) (Profile.segments p)

let test_shift_inserts_at_every_index () =
  let n = 40 in
  let p = staircase n in
  let base = Profile.segments p in
  for i = 0 to n - 1 do
    (* a 10 s window inside segment [i]: boundaries land at [i + 1] and
       [i + 2], shifting [n - i - 1] and then [n - i - 1] slots *)
    let t, free = List.nth base i in
    let expected =
      List.concat
        (List.mapi
           (fun k seg ->
             if k = i then [ seg; (t +. 50.0, free - 1); (t +. 60.0, free) ]
             else [ seg ])
           base)
    in
    check_round_trip (Printf.sprintf "insert after %d" i) p ~expected
      (fun () -> Profile.reserve p ~at:(t +. 50.0) ~nodes:1 ~duration:10.0)
  done

let test_shift_deletes_at_every_index () =
  let n = 40 in
  let p = staircase n in
  let base = Profile.segments p in
  for i = 1 to n - 1 do
    (* one node off segment [i] makes it equal to segment [i - 1], which
       merges it away: a delete at [i] shifting [n - i - 1] slots.  The
       last segment is unbounded, so its window first inserts its end
       at [n] and the merge then shifts that one boundary *)
    let t, _ = List.nth base i in
    let expected =
      List.filteri (fun k _ -> k <> i) base
      @ if i = n - 1 then [ (t +. 100.0, n) ] else []
    in
    check_round_trip (Printf.sprintf "delete at %d" i) p ~expected
      (fun () -> Profile.reserve p ~at:t ~nodes:1 ~duration:100.0)
  done

let test_shift_across_buffer_growth () =
  (* [create] leaves room for 16 segments; seven disjoint windows fill
     15.  An eighth window then adds the 16th and 17th boundaries, so
     its second insert grows the buffers: once in the middle of the
     profile, once appending at the end *)
  let seven_windows () =
    let p = Profile.create ~now:0.0 ~capacity:4 in
    for k = 1 to 7 do
      Profile.reserve p ~at:(100.0 *. Float.of_int k) ~nodes:1 ~duration:50.0
    done;
    Alcotest.(check int) "15 segments" 15 (Profile.segment_count p);
    p
  in
  let p = seven_windows () in
  let expected =
    List.concat_map
      (fun ((t, _) as seg) ->
        if t = 100.0 then [ seg; (125.0, 2); (135.0, 3) ] else [ seg ])
      (Profile.segments p)
  in
  check_round_trip "growth mid-profile" p ~expected (fun () ->
      Profile.reserve p ~at:125.0 ~nodes:1 ~duration:10.0);
  let p = seven_windows () in
  let expected = Profile.segments p @ [ (1000.0, 3); (1010.0, 4) ] in
  check_round_trip "growth at the end" p ~expected (fun () ->
      Profile.reserve p ~at:1000.0 ~nodes:1 ~duration:10.0)

(* Allocation guard: the floor pass is a top-level function over ints
   and [t], so it allocates nothing (test builds are opaque, so nothing
   inlines across modules).  The window scan behind [place_earliest] is
   checked by the placement round trip below. *)
let test_window_scans_allocate_nothing () =
  let releases = [ (100.0, 64); (250.0, 32); (400.0, 16) ] in
  let p = Profile.of_running ~now:0.0 ~capacity:128 releases in
  let q = Profile.of_running ~now:150.0 ~capacity:128 releases in
  Profile.reserve p ~at:500.0 ~nodes:100 ~duration:100.0;
  Profile.reserve q ~at:500.0 ~nodes:100 ~duration:100.0;
  let times = Array.make 8 0.0 and free = Array.make 8 0 in
  Alcotest.(check int) "floor from the start: one step" 1
    (Profile.floor p times free);
  Alcotest.(check int) "floor from a later start: the dip" 2
    (Profile.floor q times free);
  let calls = 1000 in
  let words_of burn =
    burn ();
    (* warm-up *)
    let before = Gc.minor_words () in
    burn ();
    Gc.minor_words () -. before
  in
  let floor_words =
    words_of (fun () ->
        for _ = 1 to calls do
          ignore (Profile.floor p times free);
          ignore (Profile.floor q times free)
        done)
  in
  Alcotest.(check (float 0.0)) "floor: 0 minor words per call" 0.0
    floor_words;
  (* The search's placement round trip (the staged [place_earliest],
     whose plain form only adds its boxed result) allocates nothing,
     whichever way its segments shift.  On a 40-segment staircase a
     2-node job merges away index 1 (38 slots move, past the loop
     crossover) and a 39-node job index 38 (one slot); [undo_to]
     re-inserts each. *)
  let stairs = staircase 40 in
  List.iter
    (fun nodes ->
      let round_trip_words =
        words_of (fun () ->
            for _ = 1 to calls do
              let m = Profile.mark stairs in
              Profile.stage_duration stairs 100.0;
              Profile.place_earliest_staged stairs ~nodes;
              Profile.undo_to stairs m
            done)
      in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%d-node place + undo_to: 0 minor words" nodes)
        0.0 round_trip_words)
    [ 2; 39 ]

let suite =
  [
    Alcotest.test_case "create" `Quick test_create;
    Alcotest.test_case "of_running" `Quick test_of_running;
    Alcotest.test_case "of_running merges" `Quick
      test_of_running_merges_equal_times;
    Alcotest.test_case "past releases ignored" `Quick
      test_of_running_past_release_ignored;
    Alcotest.test_case "oversubscription rejected" `Quick
      test_of_running_oversubscribed;
    Alcotest.test_case "earliest_start immediate" `Quick
      test_earliest_start_immediate;
    Alcotest.test_case "earliest_start waits" `Quick
      test_earliest_start_waits_for_release;
    Alcotest.test_case "earliest_start skips short hole" `Quick
      test_earliest_start_hole_too_short;
    Alcotest.test_case "reserve splits" `Quick test_reserve_splits_segments;
    Alcotest.test_case "reserve validates" `Quick test_reserve_insufficient;
    Alcotest.test_case "floor steps" `Quick test_floor;
    Alcotest.test_case "copy independence" `Quick test_copy_independent;
    Alcotest.test_case "trail undo restores" `Quick test_trail_undo_restores;
    Alcotest.test_case "trail finish past last boundary" `Quick
      test_trail_finish_past_last_boundary;
    Alcotest.test_case "trail split at at" `Quick test_trail_split_at_at;
    Alcotest.test_case "trail merges both ends" `Quick
      test_trail_merge_both_ends;
    Alcotest.test_case "trail nested marks" `Quick test_trail_nested_marks;
    Alcotest.test_case "trail invalid mark" `Quick test_trail_invalid_mark;
    Alcotest.test_case "place_earliest = two-step" `Quick
      test_place_earliest_matches_two_step;
    Helpers.qcheck prop_invariant_under_reserves;
    Helpers.qcheck prop_earliest_start_is_feasible;
    Helpers.qcheck prop_earliest_start_is_minimal;
    Helpers.qcheck prop_free_never_negative;
    Helpers.qcheck prop_trail_matches_copy_oracle;
    Helpers.qcheck prop_place_earliest_equals_two_step;
    Alcotest.test_case "window scans allocate nothing" `Quick
      test_window_scans_allocate_nothing;
    Alcotest.test_case "shift: insert at every index" `Quick
      test_shift_inserts_at_every_index;
    Alcotest.test_case "shift: delete at every index" `Quick
      test_shift_deletes_at_every_index;
    Alcotest.test_case "shift: across buffer growth" `Quick
      test_shift_across_buffer_growth;
    Alcotest.test_case "of_running rejects an empty release" `Quick
      test_of_running_empty_release;
  ]
