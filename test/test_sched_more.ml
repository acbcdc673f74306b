(* Additional behavioural tests for the backfill variants. *)

open Sched

let r_star (j : Workload.Job.t) = j.runtime

let context ?(now = 0.0) ?(capacity = 16) ~waiting ~running () =
  let machine = Cluster.Machine.v ~nodes:capacity in
  let rs = Cluster.Running_set.create ~machine in
  List.iter
    (fun (id, nodes, start, runtime) ->
      let job =
        Helpers.job ~id ~nodes ~runtime ~submit:(Float.max 0.0 start) ()
      in
      Cluster.Running_set.add rs
        {
          Cluster.Running_set.job;
          start;
          finish = start +. runtime;
          est_finish = start +. runtime;
        })
    running;
  { Policy.now; waiting; running = rs; r_star }

let ids = List.map (fun (j : Workload.Job.t) -> j.id)

(* --- Selective backfill: threshold promotion --- *)

let test_selective_promotes_starved_job () =
  (* A wide job that cannot start now gets a reservation only once its
     expansion factor crosses the threshold; before that, backfill may
     freely delay it. *)
  let check_at ~now ~expect label =
    (* wide job submitted at t=0 needs 12 of 16 nodes; 8 are busy until
       now+50; the 10000-s filler fits the 8 free nodes but would delay
       the wide job's earliest start (now+50) by hours *)
    let wide = Helpers.job ~id:0 ~submit:0.0 ~nodes:12 ~runtime:3600.0 () in
    let filler =
      Helpers.job ~id:1 ~submit:now ~nodes:8 ~runtime:10000.0 ()
    in
    let running = [ (99, 8, now -. 100.0, 150.0) ] in
    let ctx = context ~now ~waiting:[ wide; filler ] ~running () in
    let started = (Selective.policy ()).Policy.decide ctx in
    Alcotest.(check (list int)) label expect (ids started)
  in
  (* waited 100 s: xf ~ 1.03, below the threshold of 3 *)
  check_at ~now:100.0 ~expect:[ 1 ] "young queue: filler backfills freely";
  (* waited 4 h: xf = 5 -> promoted to a reservation, filler blocked *)
  check_at ~now:(Simcore.Units.hours 4.0)
    ~expect:[] "starved job holds a reservation"

(* --- Conservative backfill: no queued job is delayed --- *)

let test_conservative_blocks_harmful_backfill () =
  (* Queue: A (needs 12, reserved at t=100), B (needs 10, reserved
     after A), C (4 nodes, long).  Under one-reservation EASY, C could
     delay B; conservative must not start C if it pushes B back. *)
  let a = Helpers.job ~id:0 ~nodes:12 ~runtime:100.0 () in
  let b = Helpers.job ~id:1 ~submit:1.0 ~nodes:14 ~runtime:100.0 () in
  let c = Helpers.job ~id:2 ~submit:2.0 ~nodes:4 ~runtime:100000.0 () in
  let running = [ (99, 12, -50.0, 150.0) ] in
  let easy_ctx = context ~now:0.0 ~waiting:[ a; b; c ] ~running () in
  let easy = Backfill.plan ~reservations:1 ~priority:Priority.fcfs easy_ctx in
  Alcotest.(check (list int)) "EASY starts the long narrow job" [ 2 ]
    (ids easy.Backfill.start_now);
  let cons_ctx = context ~now:0.0 ~waiting:[ a; b; c ] ~running () in
  let cons =
    Backfill.plan ~reservations:max_int ~priority:Priority.fcfs cons_ctx
  in
  Alcotest.(check (list int)) "conservative blocks it" []
    (ids cons.Backfill.start_now);
  Alcotest.(check int) "all blocked jobs reserved" 3
    (List.length cons.Backfill.reserved)

(* --- Multiple reservations --- *)

let test_two_reservations () =
  let a = Helpers.job ~id:0 ~nodes:12 ~runtime:100.0 () in
  let b = Helpers.job ~id:1 ~submit:1.0 ~nodes:12 ~runtime:100.0 () in
  let c = Helpers.job ~id:2 ~submit:2.0 ~nodes:12 ~runtime:100.0 () in
  let running = [ (99, 12, -50.0, 150.0) ] in
  let ctx = context ~now:0.0 ~waiting:[ a; b; c ] ~running () in
  let plan = Backfill.plan ~reservations:2 ~priority:Priority.fcfs ctx in
  match plan.Backfill.reserved with
  | [ (ja, ta); (jb, tb) ] ->
      Alcotest.(check int) "first reserved" 0 ja.Workload.Job.id;
      Alcotest.(check int) "second reserved" 1 jb.Workload.Job.id;
      Alcotest.(check (float 1e-6)) "stacked starts" (ta +. 100.0) tb;
      Alcotest.(check bool) "third job got nothing" true
        (List.length plan.Backfill.start_now = 0)
  | r -> Alcotest.failf "expected 2 reservations, got %d" (List.length r)

(* --- distributions not covered elsewhere --- *)

let test_normal_moments () =
  let rng = Simcore.Rng.create ~seed:41 in
  let n = 20_000 in
  let samples =
    (* the Gaussian behind [lognormal] *)
    Array.init n (fun _ -> log (Simcore.Dist.lognormal rng ~mu:10.0 ~sigma:2.0))
  in
  let mean = Simcore.Stats.mean samples in
  let stddev =
    sqrt (Simcore.Stats.mean (Array.map (fun x -> (x -. mean) ** 2.0) samples))
  in
  Alcotest.(check bool) "mean ~10" true (Float.abs (mean -. 10.0) < 0.1);
  Alcotest.(check bool) "stddev ~2" true (Float.abs (stddev -. 2.0) < 0.1)

let test_lognormal_median () =
  let rng = Simcore.Rng.create ~seed:43 in
  let n = 20_001 in
  let samples =
    Array.init n (fun _ -> Simcore.Dist.lognormal rng ~mu:(log 100.0) ~sigma:1.0)
  in
  let median = Simcore.Stats.percentile samples 50.0 in
  Alcotest.(check bool)
    (Printf.sprintf "median ~100 (got %.1f)" median)
    true
    (Float.abs (median -. 100.0) < 8.0)

let suite =
  [
    Alcotest.test_case "selective promotes starved job" `Quick
      test_selective_promotes_starved_job;
    Alcotest.test_case "conservative blocks harmful backfill" `Quick
      test_conservative_blocks_harmful_backfill;
    Alcotest.test_case "two reservations stack" `Quick test_two_reservations;
    Alcotest.test_case "normal moments" `Quick test_normal_moments;
    Alcotest.test_case "lognormal median" `Quick test_lognormal_median;
  ]
