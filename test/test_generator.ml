(* Tests for the calibrated synthetic workload generator. *)

open Workload

let month_small ?(scale = 0.2) ?(seed = 42) label =
  let profile = Month_profile.find label in
  let config = { Generator.default_config with scale; seed } in
  (profile, Generator.month ~config profile)

let test_deterministic () =
  let _, a = month_small "7/03" in
  let _, b = month_small "7/03" in
  Alcotest.(check int) "same length" (Trace.length a) (Trace.length b);
  Array.iteri
    (fun i (ja : Job.t) ->
      let jb = (Trace.jobs b).(i) in
      Alcotest.(check (float 1e-9)) "same submit" ja.submit jb.Job.submit;
      Alcotest.(check int) "same nodes" ja.nodes jb.Job.nodes;
      Alcotest.(check (float 1e-9)) "same runtime" ja.runtime jb.Job.runtime)
    (Trace.jobs a)

let test_seed_changes_workload () =
  let _, a = month_small ~seed:1 "7/03" in
  let _, b = month_small ~seed:2 "7/03" in
  let ja = Trace.jobs a and jb = Trace.jobs b in
  let n = min (Array.length ja) (Array.length jb) in
  let differs = ref false in
  for i = 0 to n - 1 do
    if ja.(i).Job.submit <> jb.(i).Job.submit
       || ja.(i).Job.nodes <> jb.(i).Job.nodes
    then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_job_count () =
  let profile, t = month_small ~scale:0.2 "10/03" in
  let expected =
    int_of_float (Float.round (0.2 *. float_of_int profile.Month_profile.n_jobs))
  in
  let measured = List.length (Trace.measured t) in
  Alcotest.(check int) "measured job count" expected measured

let test_jobs_within_limits () =
  let profile, t = month_small "12/03" in
  Array.iter
    (fun (j : Job.t) ->
      Alcotest.(check bool) "nodes within machine" true
        (j.nodes >= 1 && j.nodes <= Month_profile.capacity);
      Alcotest.(check bool) "runtime within limit" true
        (j.runtime > 0.0
        && j.runtime <= profile.Month_profile.runtime_limit +. 1e-6);
      Alcotest.(check bool) "requested >= runtime" true
        (j.requested >= j.runtime))
    (Trace.jobs t)

let test_load_calibration () =
  List.iter
    (fun label ->
      let profile, t = month_small ~scale:0.5 label in
      let load =
        (Mix_report.of_trace t ~capacity:Month_profile.capacity).load
      in
      let target = profile.Month_profile.load in
      Alcotest.(check bool)
        (Printf.sprintf "%s load %.2f within 0.02 of %.2f" label load target)
        true
        (Float.abs (load -. target) < 0.02))
    [ "6/03"; "7/03"; "1/04"; "3/04" ]

let test_mix_calibration () =
  let profile, t = month_small ~scale:0.5 "10/03" in
  let mix = Mix_report.of_trace ~capacity:Month_profile.capacity t in
  let norm arr =
    let s = Array.fold_left ( +. ) 0.0 arr in
    Array.map (fun v -> 100.0 *. v /. s) arr
  in
  let jobs_diff =
    Helpers.max_abs_diff mix.Mix_report.jobs8
      (norm profile.Month_profile.jobs8)
  in
  Alcotest.(check bool)
    (Printf.sprintf "job-mix within 5 points (got %.1f)" jobs_diff)
    true (jobs_diff < 5.0);
  let demand_diff =
    Helpers.max_abs_diff mix.Mix_report.demand8
      (norm profile.Month_profile.demand8)
  in
  Alcotest.(check bool)
    (Printf.sprintf "demand within 12 points (got %.1f)" demand_diff)
    true (demand_diff < 12.0)

let test_runtime_class_calibration () =
  let profile, t = month_small ~scale:0.5 "1/04" in
  let mix = Mix_report.of_trace ~capacity:Month_profile.capacity t in
  (* January 2004's signature features should survive generation: many
     long one-node jobs and many short 9-32-node jobs. *)
  Alcotest.(check bool) "1/04 long one-node jobs prominent" true
    (mix.Mix_report.long5.(0) > 12.0);
  Alcotest.(check bool) "1/04 short 9-32 jobs prominent" true
    (mix.Mix_report.short5.(3) > 10.0);
  ignore profile

let test_warmup_cooldown_windows () =
  let _, t = month_small ~scale:0.2 "6/03" in
  let start = Trace.measure_start t and stop = Trace.measure_end t in
  (* the final load correction rescales the time axis by a few percent,
     so compare proportionally *)
  Alcotest.(check bool) "warmup is about a scaled week" true
    (Float.abs ((start /. (Simcore.Units.week *. 0.2)) -. 1.0) < 0.25);
  Alcotest.(check bool) "window is about a scaled month" true
    (Float.abs (((stop -. start) /. (Month_profile.span *. 0.2)) -. 1.0) < 0.25);
  let before = ref 0 and inside = ref 0 and after = ref 0 in
  Array.iter
    (fun (j : Job.t) ->
      if j.submit < start then incr before
      else if j.submit < stop then incr inside
      else incr after)
    (Trace.jobs t);
  Alcotest.(check bool) "warmup jobs exist" true (!before > 0);
  Alcotest.(check bool) "cooldown jobs exist" true (!after > 0);
  Alcotest.(check bool) "most jobs in window" true (!inside > !before + !after)

let test_arrival_times_ordered_and_bounded () =
  let rng = Simcore.Rng.create ~seed:4 in
  let times =
    Generator.arrival_times rng ~origin:100.0 ~span:1000.0 ~count:200
  in
  Alcotest.(check int) "count" 200 (Array.length times);
  Array.iteri
    (fun i v ->
      Alcotest.(check bool) "in range" true (v >= 100.0 && v < 1100.0);
      if i > 0 then
        Alcotest.(check bool) "ascending" true (v >= times.(i - 1)))
    times

(* --- exactness against the per-draw forms they replaced --- *)

(* Four shapes.  Many repeated values, [-0.] beside [0.] and a few
   outliers, which crowd a bucket and take the library sort.  The
   shape of the arrival targets, which takes the bucket path: up to a
   few thousand values uniform on [\[0, x)], with exact duplicates
   (about 40 copies of each) and [-0.]/[0.] among them, too few to
   crowd a bucket.  Arrays of one value, and of [-0.]/[0.] alone,
   which need no move. *)
let float_array_gen =
  QCheck.Gen.(
    let mixed =
      array_size (int_range 0 700)
        (frequency
           [ (4, map float_of_int (int_range (-3) 3)); (1, return (-0.0));
             (2, float_range (-1e6) 1e6) ])
    in
    let uniform =
      float_range 1e-3 1e9 >>= fun x ->
      array_size (int_range 0 3000)
        (frequency
           [ (80, float_bound_exclusive x);
             (19, map (fun k -> x *. float_of_int k /. 16.0) (int_range 1 15));
             (1, oneofl [ -0.0; 0.0 ]) ])
    in
    let constant =
      float_range (-1e6) 1e6 >>= fun v ->
      array_size (int_range 0 3000) (return v)
    in
    let zeros = array_size (int_range 0 3000) (oneofl [ -0.0; 0.0 ]) in
    frequency [ (2, mixed); (3, uniform); (1, constant); (1, zeros) ])

let prop_sort_floats_is_stable_sort =
  QCheck.Test.make ~name:"sort_floats = Array.stable_sort Float.compare"
    ~count:300
    (QCheck.make ~print:QCheck.Print.(array float) float_array_gen)
    (fun a ->
      let expected = Array.copy a in
      Array.stable_sort Float.compare expected;
      let got = Array.copy a in
      Generator.sort_floats got;
      Array.map Int64.bits_of_float got
      = Array.map Int64.bits_of_float expected)

(* The categorical draw before its table was built once: sum every
   weight, draw under the total, scan running sums. *)
let linear_categorical rng weights =
  let total = Array.fold_left ( +. ) 0.0 weights in
  let target = Simcore.Rng.float rng total in
  let n = Array.length weights in
  let rec scan i acc =
    if i >= n - 1 then n - 1
    else
      let acc = acc +. weights.(i) in
      if target < acc then i else scan (i + 1) acc
  in
  scan 0 0.0

let prop_categorical_table_is_linear_draw =
  let weights_gen =
    QCheck.Gen.(
      array_size (int_range 1 50)
        (frequency [ (1, return 0.0); (3, float_range 0.0 100.0) ]))
  in
  QCheck.Test.make ~name:"categorical table = per-call linear draw"
    ~count:300
    (QCheck.make
       ~print:QCheck.Print.(pair int (array float))
       QCheck.Gen.(pair (int_range 0 1_000_000) weights_gen))
    (fun (seed, weights) ->
      QCheck.assume (Array.exists (fun w -> w > 0.0) weights);
      let draw = Simcore.Dist.categorical ~weights in
      let table_rng = Simcore.Rng.create ~seed
      and linear_rng = Simcore.Rng.create ~seed in
      List.init 200 (fun _ -> draw table_rng)
      = List.init 200 (fun _ -> linear_categorical linear_rng weights))

(* The arrival sampler before the sweep: map each target through the
   inverse CDF by binary search, then sort the times.  It keeps its own
   copy of the rate model. *)
let rate t =
  let day_of_week = int_of_float (Float.rem (t /. Simcore.Units.day) 7.0) in
  let weekly = if day_of_week >= 5 then 0.55 else 1.0 in
  let hour_of_day = Float.rem (t /. Simcore.Units.hour) 24.0 in
  weekly
  *. (1.0 +. (0.45 *. cos (2.0 *. Float.pi *. (hour_of_day -. 14.0) /. 24.0)))

let binary_search_arrivals rng ~origin ~span ~count =
  let bin = Simcore.Units.hour in
  let n_bins = max 1 (int_of_float (Float.ceil (span /. bin))) in
  let cumulative = Array.make (n_bins + 1) 0.0 in
  for i = 0 to n_bins - 1 do
    let t = origin +. ((float_of_int i +. 0.5) *. bin) in
    cumulative.(i + 1) <- cumulative.(i) +. rate t
  done;
  let total = cumulative.(n_bins) in
  let invert target =
    let rec search lo hi =
      if hi - lo <= 1 then lo
      else
        let mid = (lo + hi) / 2 in
        if cumulative.(mid) <= target then search mid hi else search lo mid
    in
    let i = search 0 n_bins in
    let slack = cumulative.(i + 1) -. cumulative.(i) in
    let frac =
      if slack <= 0.0 then 0.0 else (target -. cumulative.(i)) /. slack
    in
    Float.min (span -. 1.0) ((float_of_int i +. frac) *. bin)
  in
  let times =
    Array.init count (fun _ -> origin +. invert (Simcore.Rng.float rng total))
  in
  Array.stable_sort Float.compare times;
  times

let prop_arrivals_match_binary_search =
  QCheck.Test.make ~name:"arrival_times = binary-search inverse CDF"
    ~count:200
    (QCheck.make
       ~print:QCheck.Print.(quad float float int int)
       QCheck.Gen.(
         quad (float_range 0.0 1e7) (float_range 1.0 1e7) (int_range 0 3000)
           (int_range 0 1_000_000)))
    (fun (origin, span, count, seed) ->
      let got =
        Generator.arrival_times (Simcore.Rng.create ~seed) ~origin ~span
          ~count
      in
      let expected =
        binary_search_arrivals (Simcore.Rng.create ~seed) ~origin ~span
          ~count
      in
      Array.map Int64.bits_of_float got
      = Array.map Int64.bits_of_float expected)

let test_draw_nodes_in_range () =
  let rng = Simcore.Rng.create ~seed:6 in
  let bounds = [| (1, 1); (2, 2); (3, 4); (5, 8); (9, 16); (17, 32);
                  (33, 64); (65, 128) |]
  in
  for range = 0 to 7 do
    let lo, hi = bounds.(range) in
    for _ = 1 to 200 do
      let n = Generator.draw_nodes rng ~range in
      Alcotest.(check bool)
        (Printf.sprintf "range %d: %d in [%d,%d]" range n lo hi)
        true
        (n >= lo && n <= hi)
    done
  done

let test_bucket_bounds () =
  let limit = Simcore.Units.hours 24.0 in
  let lo0, hi0 = Generator.bucket_bounds ~limit 0 in
  let lo1, hi1 = Generator.bucket_bounds ~limit 1 in
  let lo2, hi2 = Generator.bucket_bounds ~limit 2 in
  Alcotest.(check (float 1e-9)) "short top = 1h" Simcore.Units.hour hi0;
  Alcotest.(check (float 1e-9)) "middle spans 1h..5h" Simcore.Units.hour lo1;
  Alcotest.(check (float 1e-9)) "middle top = 5h" (Simcore.Units.hours 5.0) hi1;
  Alcotest.(check (float 1e-9)) "long spans 5h..limit"
    (Simcore.Units.hours 5.0) lo2;
  Alcotest.(check (float 1e-9)) "long top = limit" limit hi2;
  Alcotest.(check bool) "short low positive" true (lo0 > 0.0)

(* --- calibration regression across every month --- *)

let test_all_months_calibrated () =
  Array.iter
    (fun profile ->
      let config = { Generator.default_config with scale = 0.3; seed = 99 } in
      let trace = Generator.month ~config profile in
      let mix = Mix_report.of_trace ~capacity:Month_profile.capacity trace in
      let label = profile.Month_profile.label in
      Alcotest.(check bool)
        (Printf.sprintf "%s load %.2f ~ %.2f" label mix.Mix_report.load
           profile.Month_profile.load)
        true
        (Float.abs (mix.Mix_report.load -. profile.Month_profile.load) < 0.03);
      let norm arr =
        let s = Array.fold_left ( +. ) 0.0 arr in
        Array.map (fun v -> 100.0 *. v /. s) arr
      in
      let jobs_diff =
        Helpers.max_abs_diff mix.Mix_report.jobs8
          (norm profile.Month_profile.jobs8)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s job mix off by %.1f pts" label jobs_diff)
        true (jobs_diff < 6.0);
      let short_diff =
        Helpers.max_abs_diff mix.Mix_report.short5
          profile.Month_profile.short5
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s short shares off by %.1f pts" label short_diff)
        true (short_diff < 6.0))
    Month_profile.all

(* --- bit-exactness guard --- *)

(* FNV-1a over 64-bit words: every field of every job, floats by their
   bit pattern, then the measurement window.  Any change to a draw, its
   order or the arithmetic on it changes the fingerprint. *)
let fingerprint trace =
  let h = ref 0xcbf29ce484222325L in
  let word x = h := Int64.mul (Int64.logxor !h x) 0x100000001b3L in
  let float x = word (Int64.bits_of_float x) in
  let int x = word (Int64.of_int x) in
  Array.iter
    (fun (j : Job.t) ->
      int j.id;
      float j.submit;
      int j.nodes;
      float j.runtime;
      float j.requested;
      int j.user)
    (Trace.jobs trace);
  float (Trace.measure_start trace);
  float (Trace.measure_end trace);
  Printf.sprintf "%016Lx" !h

let check_fingerprint name expected trace =
  Alcotest.(check string) name expected (fingerprint trace)

let test_pinned_months () =
  let _, jan = month_small ~scale:1.0 "1/04" in
  check_fingerprint "1/04 scale 1 seed 42" "90c4cd5d2dc5cef3" jan;
  check_fingerprint "7/03 scale 0.3 seed 42" "f385bb57a74ccc10"
    (snd (month_small ~scale:0.3 "7/03"));
  check_fingerprint "1/04 scale 1 at rho 0.9" "77039686c8da9d8c"
    (Trace.scale_load jan ~capacity:Month_profile.capacity ~target:0.9)

(* The month schedbench's backfill-long workload replays (185K jobs):
   at this size the arrival sweep crosses some 33K hourly bins and the
   load correction squeezes the longest time axis any caller uses. *)
let test_pinned_backfill_month () =
  check_fingerprint "1/04 scale 40 seed 42" "56f7a876f6733e4e"
    (snd (month_small ~scale:40.0 "1/04"))

let test_pinned_model () =
  check_fingerprint "Model seed 1, 3 days" "7da0d26437ac5faa"
    (Model.generate ~seed:1 ~days:3.)

let test_pinned_rng () =
  let stream seed =
    let rng = Simcore.Rng.create ~seed in
    List.init 8 (fun _ -> Simcore.Rng.bits64 rng)
  in
  let hex = List.map (Printf.sprintf "%016Lx") in
  Alcotest.(check (list string)) "seed 0"
    (hex [ 0xe220a8397b1dcdafL; 0x6e789e6aa1b965f4L; 0x06c45d188009454fL;
           0xf88bb8a8724c81ecL; 0x1b39896a51a8749bL; 0x53cb9f0c747ea2eaL;
           0x2c829abe1f4532e1L; 0xc584133ac916ab3cL ])
    (hex (stream 0));
  Alcotest.(check (list string)) "seed 42"
    (hex [ 0x989b3f130a063869L; 0x290db4bf2570ded7L; 0x2a990be63a01b2d5L;
           0x0c4b6b24ef01890eL; 0xfb16a06e52ec10a7L; 0x3c30fc5fd50692c3L;
           0x4782c4b4c4fdf7c9L; 0x272404a0a3926552L ])
    (hex (stream 42))

(* Allocation guard: one scale-1 month (4,626 jobs) is generated as
   arrays end to end, sorts its arrival targets without boxing them,
   draws sizes and users from tables built once, rounds estimates
   without building a grid, and builds each job as one record at its
   load-corrected submit, with no list or [Set]: about 130 minor words
   per job in the dev profile, against 204 when every user draw re-sumed
   its weights and each job was built three times (by [Job.v], a copy
   with its user and [Trace.scale_load]), and 875 when every stage
   rebuilt a list.  The bound is the measured value plus 25%. *)
let test_month_allocation () =
  let profile = Month_profile.find "1/04" in
  let config = { Generator.default_config with scale = 1.0 } in
  ignore (Generator.month ~config profile);
  let before = Gc.minor_words () in
  let trace = Generator.month ~config profile in
  let per_job =
    (Gc.minor_words () -. before) /. Float.of_int (Trace.length trace)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words per job <= 163" per_job)
    true (per_job <= 163.0)

(* Memory guard: a generated job is a 7-word record with its [submit]
   and [runtime] boxes (2 words each), plus its slot in the trace's
   array.  [requested] takes few distinct values and shares its box
   with [Estimate.round_up]'s grid in almost every job; re-boxing it
   would add 2 words per job. *)
let test_month_words () =
  let profile = Month_profile.find "1/04" in
  let config = { Generator.default_config with scale = 1.0 } in
  let trace = Generator.month ~config profile in
  let per_job =
    Float.of_int (Obj.reachable_words (Obj.repr trace))
    /. Float.of_int (Trace.length trace)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f words per job <= 12.1" per_job)
    true (per_job <= 12.1)

(* The generator reads each job's runtime-class probabilities from
   tables built once per month; they must be the per-call values bit
   for bit, or every month's runtimes move. *)
let test_class_tables () =
  Array.iter
    (fun (m : Month_profile.t) ->
      let short, long = Month_profile.class_tables m in
      Alcotest.(check int) (m.label ^ " short classes") 5 (Array.length short);
      Alcotest.(check int) (m.label ^ " long classes") 5 (Array.length long);
      for c = 0 to 4 do
        let bits = Int64.bits_of_float in
        Alcotest.(check int64)
          (Printf.sprintf "%s short %d" m.label c)
          (bits (Month_profile.short_given_class m c))
          (bits short.(c));
        Alcotest.(check int64)
          (Printf.sprintf "%s long %d" m.label c)
          (bits (Month_profile.long_given_class m c))
          (bits long.(c))
      done)
    Month_profile.all

let suite =
  [
    Alcotest.test_case "deterministic in seed" `Quick test_deterministic;
    Alcotest.test_case "seed changes workload" `Quick test_seed_changes_workload;
    Alcotest.test_case "job count matches scale" `Quick test_job_count;
    Alcotest.test_case "jobs within limits" `Quick test_jobs_within_limits;
    Alcotest.test_case "load calibration" `Quick test_load_calibration;
    Alcotest.test_case "mix calibration" `Quick test_mix_calibration;
    Alcotest.test_case "runtime-class calibration (1/04)" `Quick
      test_runtime_class_calibration;
    Alcotest.test_case "warmup/cooldown windows" `Quick
      test_warmup_cooldown_windows;
    Alcotest.test_case "arrival times" `Quick
      test_arrival_times_ordered_and_bounded;
    Alcotest.test_case "draw_nodes ranges" `Quick test_draw_nodes_in_range;
    Alcotest.test_case "bucket bounds" `Quick test_bucket_bounds;
    Alcotest.test_case "all months calibrated" `Slow
      test_all_months_calibrated;
    Alcotest.test_case "pinned month fingerprints" `Quick test_pinned_months;
    Alcotest.test_case "pinned model fingerprint" `Quick test_pinned_model;
    Alcotest.test_case "pinned rng streams" `Quick test_pinned_rng;
    Alcotest.test_case "month allocation bound" `Quick test_month_allocation;
    Alcotest.test_case "month words per job" `Quick test_month_words;
    Helpers.qcheck prop_sort_floats_is_stable_sort;
    Helpers.qcheck prop_categorical_table_is_linear_draw;
    Helpers.qcheck prop_arrivals_match_binary_search;
    Alcotest.test_case "pinned backfill-long month" `Quick
      test_pinned_backfill_month;
    Alcotest.test_case "class tables = per-class draws" `Quick
      test_class_tables;
  ]
