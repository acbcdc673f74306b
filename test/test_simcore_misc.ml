(* Tests for Simcore.Units, Rng, Dist and Stats.  The departure order
   the engine reads is tested on Cluster.Running_set. *)

open Simcore

let feq ?(eps = 1e-9) name expected actual =
  Alcotest.(check (float eps)) name expected actual

(* --- Units --- *)

let test_units () =
  feq "hour" 3600.0 Units.hour;
  feq "minutes" 90.0 (Units.minutes 1.5);
  feq "hours" 7200.0 (Units.hours 2.0);
  feq "days" 86400.0 (Units.days 1.0);
  feq "to_hours" 2.0 (Units.to_hours 7200.0);
  feq "to_days" 0.5 (Units.to_days 43200.0)

let test_pp_duration () =
  let render v = Format.asprintf "%a" Units.pp_duration v in
  Alcotest.(check string) "seconds" "45.0s" (render 45.0);
  Alcotest.(check string) "minutes" "13.0m" (render (13.0 *. 60.0));
  Alcotest.(check string) "hours" "2.50h" (render (2.5 *. 3600.0));
  Alcotest.(check string) "days" "2.00d" (render (2.0 *. 86400.0))

(* --- Rng --- *)

let test_rng_determinism () =
  let a = Rng.create ~seed:7 in
  let b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 in
  let b = Rng.create ~seed:2 in
  Alcotest.(check bool) "different seeds differ" true
    (Rng.bits64 a <> Rng.bits64 b)

let test_rng_split_independent () =
  let parent = Rng.create ~seed:3 in
  let child = Rng.split parent in
  Alcotest.(check bool) "child differs from parent" true
    (Rng.bits64 child <> Rng.bits64 parent)

let prop_rng_int_range =
  QCheck.Test.make ~name:"Rng.int in [0, n)" ~count:500
    QCheck.(pair int (int_bound 1000))
    (fun (seed, n) ->
      let n = n + 1 in
      let rng = Rng.create ~seed in
      let v = Rng.int rng n in
      v >= 0 && v < n)

let prop_rng_unit_float =
  QCheck.Test.make ~name:"Rng.unit_float in [0,1)" ~count:500 QCheck.int
    (fun seed ->
      let rng = Rng.create ~seed in
      let v = Rng.unit_float rng in
      v >= 0.0 && v < 1.0)

let test_rng_int_invalid () =
  let rng = Rng.create ~seed:0 in
  Alcotest.check_raises "n=0 rejected"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

(* --- Dist --- *)

let test_dist_mean_exponential () =
  let rng = Rng.create ~seed:11 in
  let n = 20_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Helpers.exponential rng ~mean:5.0
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool) "mean within 5%" true (Float.abs (mean -. 5.0) < 0.25)

let test_dist_log_uniform_bounds () =
  let rng = Rng.create ~seed:13 in
  for _ = 1 to 1000 do
    let v = Dist.log_uniform rng ~lo:10.0 ~hi:1000.0 in
    Alcotest.(check bool) "in bounds" true (v >= 10.0 && v < 1000.0 +. 1e-9)
  done;
  (* every comparison with NaN is false, so a NaN bound must be caught
     by a check stated positively; an infinite one would draw infinity *)
  List.iter
    (fun (lo, hi) ->
      Alcotest.check_raises
        (Printf.sprintf "lo %g hi %g" lo hi)
        (Invalid_argument "Dist.log_uniform: need finite 0 < lo <= hi")
        (fun () -> ignore (Dist.log_uniform rng ~lo ~hi)))
    [ (0.0, 1.0); (2.0, 1.0); (Float.nan, 1.0); (1.0, Float.nan);
      (Float.nan, Float.nan); (1.0, Float.infinity);
      (Float.infinity, Float.infinity) ]

let test_dist_categorical () =
  let rng = Rng.create ~seed:17 in
  let counts = Array.make 3 0 in
  for _ = 1 to 9000 do
    let i = Dist.categorical rng ~weights:[| 1.0; 2.0; 0.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero-weight category never drawn" 0 counts.(2);
  Alcotest.(check bool) "ratio roughly 1:2" true
    (float_of_int counts.(1) /. float_of_int counts.(0) > 1.6)

let test_dist_categorical_invalid () =
  let rng = Rng.create ~seed:0 in
  Alcotest.check_raises "all zero"
    (Invalid_argument "Dist.categorical: all weights zero") (fun () ->
      ignore (Dist.categorical rng ~weights:[| 0.0; 0.0 |]));
  Alcotest.check_raises "negative"
    (Invalid_argument "Dist.categorical: negative weight") (fun () ->
      ignore (Dist.categorical rng ~weights:[| 1.0; -1.0 |]));
  (* a NaN weight once made the total NaN, and every draw silently
     returned the last category *)
  List.iter
    (fun weights ->
      Alcotest.check_raises "non-finite"
        (Invalid_argument "Dist.categorical: non-finite weight") (fun () ->
          ignore (Dist.categorical rng ~weights)))
    [ [| 1.0; Float.nan |]; [| Float.nan; 1.0 |]; [| Float.infinity; 1.0 |];
      [| 1.0; Float.max_float; Float.max_float |] ]

let test_dist_bernoulli_extremes () =
  let rng = Rng.create ~seed:19 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "p=0 never true" false (Dist.bernoulli rng ~p:0.0);
    Alcotest.(check bool) "p=1 always true" true (Dist.bernoulli rng ~p:1.0)
  done

(* --- Stats --- *)

let test_percentile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  feq "p0" 1.0 (Stats.percentile xs 0.0);
  feq "p50" 3.0 (Stats.percentile xs 50.0);
  feq "p100" 5.0 (Stats.percentile xs 100.0);
  feq "p25 interpolates" 2.0 (Stats.percentile xs 25.0);
  feq "p98 of 5" 4.92 (Stats.percentile xs 98.0)

let test_percentile_does_not_mutate () =
  let xs = [| 3.0; 1.0; 2.0 |] in
  let _ = Stats.percentile xs 50.0 in
  Alcotest.(check (array (float 0.0))) "unchanged" [| 3.0; 1.0; 2.0 |] xs

let test_timeline () =
  let t = Stats.Timeline.create ~start:0.0 in
  Stats.Timeline.record t ~now:0.0 ~value:2.0;
  Stats.Timeline.record t ~now:10.0 ~value:4.0;
  (* 2.0 for 10s then 4.0 for 10s -> average 3.0 *)
  feq "time-weighted avg" 3.0 (Stats.Timeline.average t ~upto:20.0);
  feq "empty window" 0.0 (Stats.Timeline.average t ~upto:0.0)

let prop_percentile_bounds =
  QCheck.Test.make ~name:"percentile within min..max" ~count:300
    QCheck.(pair (list_of_size Gen.(1 -- 40) (float_bound_exclusive 1000.0))
              (float_bound_inclusive 100.0))
    (fun (xs, p) ->
      let arr = Array.of_list xs in
      let v = Stats.percentile arr p in
      let lo = Array.fold_left Float.min Float.infinity arr in
      let hi = Array.fold_left Float.max Float.neg_infinity arr in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

let suite =
  [
    Alcotest.test_case "units conversions" `Quick test_units;
    Alcotest.test_case "pp_duration" `Quick test_pp_duration;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng seed sensitivity" `Quick test_rng_seed_sensitivity;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng invalid bound" `Quick test_rng_int_invalid;
    Helpers.qcheck prop_rng_int_range;
    Helpers.qcheck prop_rng_unit_float;
    Alcotest.test_case "exponential mean" `Quick test_dist_mean_exponential;
    Alcotest.test_case "log-uniform bounds" `Quick test_dist_log_uniform_bounds;
    Alcotest.test_case "categorical" `Quick test_dist_categorical;
    Alcotest.test_case "categorical invalid" `Quick test_dist_categorical_invalid;
    Alcotest.test_case "bernoulli extremes" `Quick test_dist_bernoulli_extremes;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "percentile pure" `Quick test_percentile_does_not_mutate;
    Alcotest.test_case "timeline average" `Quick test_timeline;
    Helpers.qcheck prop_percentile_bounds;
  ]
