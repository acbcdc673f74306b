(* Tests for Cluster.Machine and Cluster.Running_set. *)

open Cluster

let entry ?(id = 0) ?(nodes = 4) ?(start = 0.0) ?(runtime = 100.0) () =
  let job = Helpers.job ~id ~nodes ~runtime () in
  {
    Running_set.job;
    start;
    finish = start +. runtime;
    est_finish = start +. runtime;
  }

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
  Alcotest.(check bool) "starts empty" true (Running_set.is_empty rs);
  Running_set.add rs (entry ~id:0 ~nodes:4 ());
  Running_set.add rs (entry ~id:1 ~nodes:8 ());
  Alcotest.(check int) "busy" 12 (Running_set.busy_nodes rs);
  Alcotest.(check int) "free" 4 (Running_set.free_nodes rs);
  Alcotest.(check int) "count" 2 (Running_set.count rs);
  let e = Running_set.remove rs ~id:0 in
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
    (fun () -> Running_set.add rs (entry ~id:1 ~nodes:1 ()));
  Alcotest.check_raises "remove missing" Not_found (fun () ->
      ignore (Running_set.remove rs ~id:99))

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

(* Property: the profile built from the maintained release order
   ([Policy.profile_of], via [Running_set.profile]) equals the
   reference built from the job table's release list, floats included,
   after every step of a random start/finish/advance sequence.  Ends
   sit on a coarse grid so many tie, the clock advances past them so
   overdue jobs exercise the R*=pred clamp, and narrow jobs let more
   than 32 run at once so the release arrays grow. *)
type op = Start of int * int | Finish of int | Advance of int

let ops_arbitrary =
  let gen =
    QCheck.Gen.(
      pair (16 -- 128)
        (list_size (1 -- 150)
           (frequency
              [
                (4, map2 (fun n e -> Start (n, e)) (1 -- 4) (0 -- 12));
                (2, map2 (fun n e -> Start (n, e)) (1 -- 32) (0 -- 12));
                (3, map (fun k -> Finish k) (0 -- 1000));
                (2, map (fun d -> Advance d) (0 -- 8));
              ])))
  in
  let print (nodes, ops) =
    Printf.sprintf "nodes=%d [%s]" nodes
      (String.concat "; "
         (List.map
            (function
              | Start (n, e) -> Printf.sprintf "Start(%d,%d)" n e
              | Finish k -> Printf.sprintf "Finish %d" k
              | Advance d -> Printf.sprintf "Advance %d" d)
            ops))
  in
  QCheck.make ~print gen

let prop_maintained_profile_matches_reference =
  QCheck.Test.make ~name:"maintained profile = of_running reference"
    ~count:300 ops_arbitrary (fun (capacity, ops) ->
      let rs = Running_set.create ~machine:(Machine.v ~nodes:capacity) in
      let now = ref 0.0 and next_id = ref 0 and live = ref [] in
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
        Profile.segments (Sched.Policy.profile_of ctx)
        = Profile.segments reference
      in
      List.for_all
        (fun op ->
          (match op with
          | Start (nodes, e) ->
              if nodes <= Running_set.free_nodes rs then begin
                let id = !next_id in
                incr next_id;
                (* ends on a 100 s grid; [e = 0] may already be past *)
                let est_finish =
                  (Float.floor (!now /. 100.0) +. Float.of_int e) *. 100.0
                in
                Running_set.add rs
                  {
                    (entry ~id ~nodes ~start:!now ~runtime:1e6 ()) with
                    Running_set.est_finish;
                  };
                live := id :: !live
              end
          | Finish k -> (
              match !live with
              | [] -> ()
              | ids ->
                  let id = List.nth ids (k mod List.length ids) in
                  ignore (Running_set.remove rs ~id);
                  live := List.filter (( <> ) id) ids)
          | Advance d -> now := !now +. (50.0 *. Float.of_int d));
          agrees ())
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
    QCheck_alcotest.to_alcotest prop_maintained_profile_matches_reference;
  ]
