(* Tests for Workload: Job, Trace, Estimate, Month_profile, Mix_report. *)

open Workload

let job ?(id = 0) ?(submit = 0.0) ?(nodes = 1) ?(runtime = 3600.0)
    ?requested () =
  Job.v ~id ~submit ~nodes ~runtime
    ~requested:(Option.value requested ~default:runtime)

(* --- Job --- *)

let test_job_validation () =
  Alcotest.check_raises "nodes >= 1" (Invalid_argument "Job.v: nodes must be >= 1")
    (fun () -> ignore (job ~nodes:0 ()));
  Alcotest.check_raises "runtime > 0"
    (Invalid_argument "Job.v: runtime must be positive") (fun () ->
      ignore (job ~runtime:0.0 ()));
  Alcotest.check_raises "requested >= runtime"
    (Invalid_argument "Job.v: requested < runtime") (fun () ->
      ignore (job ~runtime:100.0 ~requested:50.0 ()));
  (* NaN fails every comparison, and infinities pass the ones above *)
  List.iter
    (fun (name, make) ->
      Alcotest.check_raises name (Invalid_argument "Job.v: non-finite time")
        (fun () -> ignore (make ())))
    [ ("nan submit", fun () -> job ~submit:Float.nan ());
      ("inf submit", fun () -> job ~submit:Float.infinity ());
      ("nan runtime", fun () -> job ~runtime:Float.nan ());
      ("inf runtime", fun () -> job ~runtime:Float.infinity ());
      ("nan requested", fun () -> job ~requested:Float.nan ());
      ("inf requested", fun () -> job ~requested:Float.infinity ()) ];
  Alcotest.check_raises "user >= 0" (Invalid_argument "Job.v: negative user")
    (fun () ->
      ignore
        (Job.make ~id:0 ~submit:0.0 ~nodes:1 ~runtime:1.0 ~requested:1.0
           ~user:(-1)));
  Alcotest.(check int) "make keeps the user" 7
    (Job.make ~id:0 ~submit:0.0 ~nodes:1 ~runtime:1.0 ~requested:1.0 ~user:7)
      .user;
  Alcotest.(check int) "v gives user 0" 0
    (Job.v ~id:0 ~submit:0.0 ~nodes:1 ~runtime:1.0 ~requested:1.0).user

let test_job_area () =
  Alcotest.(check (float 1e-9)) "area" 7200.0
    (Job.area (job ~nodes:2 ~runtime:3600.0 ()))

let test_size_range8 () =
  let cases = [ (1, 0); (2, 1); (3, 2); (4, 2); (5, 3); (8, 3); (9, 4);
                (16, 4); (17, 5); (32, 5); (33, 6); (64, 6); (65, 7); (128, 7) ]
  in
  List.iter
    (fun (n, expected) ->
      Alcotest.(check int) (Printf.sprintf "range of %d" n) expected
        (Job.size_range8 n))
    cases

let test_node_class5 () =
  let cases = [ (1, 0); (2, 1); (3, 2); (8, 2); (9, 3); (32, 3); (33, 4);
                (128, 4) ]
  in
  List.iter
    (fun (n, expected) ->
      Alcotest.(check int) (Printf.sprintf "class of %d" n) expected
        (Job.node_class5 n))
    cases

let test_runtime_class5 () =
  let open Simcore.Units in
  let cases =
    [ (minutes 5.0, 0); (minutes 10.0, 0); (minutes 30.0, 1); (hour, 1);
      (hours 2.0, 2); (hours 4.0, 2); (hours 6.0, 3); (hours 8.0, 3);
      (hours 9.0, 4) ]
  in
  List.iter
    (fun (t, expected) ->
      Alcotest.(check int) (Printf.sprintf "class of %gs" t) expected
        (Job.runtime_class5 t))
    cases

let test_compare_submit () =
  let a = job ~id:0 ~submit:5.0 () in
  let b = job ~id:1 ~submit:3.0 () in
  let c = job ~id:2 ~submit:5.0 () in
  Alcotest.(check bool) "later submit sorts after" true
    (Job.compare_submit a b > 0);
  Alcotest.(check bool) "tie broken by id" true (Job.compare_submit a c < 0)

(* --- Trace --- *)

let test_trace_sorts_and_windows () =
  let jobs = [ job ~id:0 ~submit:10.0 (); job ~id:1 ~submit:5.0 () ] in
  let t = Trace.v jobs in
  let sorted = Trace.jobs t in
  Alcotest.(check int) "sorted by submit" 1 sorted.(0).Job.id;
  Alcotest.(check int) "length" 2 (Trace.length t)

let test_trace_duplicate_ids () =
  Alcotest.check_raises "duplicate ids"
    (Invalid_argument "Trace.v: duplicate job id 0") (fun () ->
      ignore (Trace.v [ job ~id:0 (); job ~id:0 ~submit:1.0 () ]))

let test_trace_measured_window () =
  let jobs =
    [ job ~id:0 ~submit:1.0 (); job ~id:1 ~submit:5.0 ();
      job ~id:2 ~submit:9.0 () ]
  in
  let t =
    Trace.of_array ~measure_start:4.0 ~measure_end:9.0 (Array.of_list jobs)
  in
  Alcotest.(check (list int)) "only in-window jobs" [ 1 ]
    (List.map (fun (j : Job.t) -> j.id) (Trace.measured t))

let test_trace_offered_load () =
  (* one 4-node 100s job in a 100s window on a 4-node machine = load 1 *)
  let t =
    Trace.of_array ~measure_start:0.0 ~measure_end:100.0
      [| job ~nodes:4 ~runtime:100.0 () |]
  in
  Alcotest.(check (float 1e-9)) "load" 1.0
    (Mix_report.of_trace t ~capacity:4).Mix_report.load

let test_trace_scale_load () =
  let jobs =
    List.init 10 (fun i -> job ~id:i ~submit:(float_of_int i *. 10.0) ())
  in
  let t =
    Trace.of_array ~measure_start:0.0 ~measure_end:100.0 (Array.of_list jobs)
  in
  let load t = (Mix_report.of_trace t ~capacity:16).Mix_report.load in
  let load0 = load t in
  let scaled = Trace.scale_load t ~capacity:16 ~target:(2.0 *. load0) in
  Alcotest.(check (float 1e-6)) "load doubled" (2.0 *. load0)
    (load scaled);
  Alcotest.(check int) "same jobs" 10 (Trace.length scaled);
  let j = (Trace.jobs scaled).(3) in
  Alcotest.(check (float 1e-9)) "runtimes unchanged" 3600.0 j.Job.runtime

(* Random job lists in four shapes, so that each of [Trace.v]'s fast
   paths and fallbacks runs: already in submit order or not, ids
   increasing along submit order or shuffled.  Submits sit on a coarse
   grid so ties fall back on ids, and a third of the lists carry a
   planted duplicate id. *)
let prop_trace_v_matches_reference =
  QCheck.Test.make ~name:"Trace.v = sort + Set duplicate check" ~count:500
    QCheck.int (fun seed ->
      let rng = Simcore.Rng.create ~seed in
      let n = Simcore.Rng.int rng 40 in
      let shuffle a =
        for i = Array.length a - 1 downto 1 do
          let k = Simcore.Rng.int rng (i + 1) in
          let x = a.(i) in
          a.(i) <- a.(k);
          a.(k) <- x
        done
      in
      let submits =
        Array.init n (fun _ -> 10.0 *. Float.of_int (Simcore.Rng.int rng 6))
      in
      let ids = Array.init n Fun.id in
      (match Simcore.Rng.int rng 4 with
       | 0 -> Array.sort Float.compare submits
       | 1 ->
           Array.sort Float.compare submits;
           shuffle ids
       | 2 -> shuffle ids
       | _ -> ());
      if n >= 2 && Simcore.Rng.int rng 3 = 0 then
        ids.(Simcore.Rng.int rng n) <- ids.(Simcore.Rng.int rng n);
      let jobs =
        List.init n (fun i -> job ~id:ids.(i) ~submit:submits.(i) ())
      in
      let module Ids = Set.Make (Int) in
      let _, dups =
        List.fold_left
          (fun (seen, dups) (j : Job.t) ->
            if Ids.mem j.id seen then (seen, Ids.add j.id dups)
            else (Ids.add j.id seen, dups))
          (Ids.empty, Ids.empty) jobs
      in
      match (Trace.v jobs, Ids.min_elt_opt dups) with
      | t, None ->
          let expected = Array.of_list jobs in
          Array.sort Job.compare_submit expected;
          Trace.jobs t = expected
      | _, Some _ -> false
      | exception Invalid_argument msg -> (
          match Ids.min_elt_opt dups with
          | Some id -> msg = Printf.sprintf "Trace.v: duplicate job id %d" id
          | None -> false))

(* Compressing submits a few units apart, around a large origin, rounds
   them all onto the origin; the jobs' ids run against submit order, so
   only the fallback sort restores (submit, id) order. *)
let test_scale_load_ties_resorted () =
  let origin = 1e6 in
  let t =
    Trace.v
      (List.init 5 (fun i ->
           job ~id:(9 - (2 * i)) ~submit:(origin +. Float.of_int i) ~runtime:100.0
             ()))
  in
  let scaled = Trace.scale_load t ~capacity:1 ~target:1e15 in
  let jobs = Trace.jobs scaled in
  Alcotest.(check bool) "squeezing created ties" true
    (jobs.(0).Job.submit = jobs.(Array.length jobs - 1).Job.submit);
  Alcotest.(check (list int)) "ties ordered by id" [ 1; 3; 5; 7; 9 ]
    (Array.to_list (Array.map (fun (j : Job.t) -> j.id) jobs))

(* --- Estimate --- *)

let test_estimate_round_up () =
  let limit = Simcore.Units.hours 12.0 in
  Alcotest.(check (float 1e-9)) "rounds to 1h" Simcore.Units.hour
    (Estimate.round_up ~limit 3599.0);
  Alcotest.(check (float 1e-9)) "caps at limit" limit
    (Estimate.round_up ~limit (Simcore.Units.hours 50.0))

(* The round request values below [limit], then [limit]: the grid
   [Estimate.round_up] rounds onto, spelled out. *)
let estimate_grid ~limit =
  let open Simcore.Units in
  List.map minutes [ 5.0; 10.0; 15.0; 30.0 ]
  @ List.map hours
      [ 1.0; 2.0; 3.0; 4.0; 6.0; 8.0; 10.0; 12.0; 16.0; 20.0; 24.0; 36.0; 48.0 ]
  |> List.filter (fun v -> v < limit)
  |> fun g -> Array.of_list (g @ [ limit ])

(* [round_up] scans the static round values; it must agree with the
   first [grid] value >= r on, just below and just above every grid
   point, at and beyond the limit, for every month's limit. *)
let test_estimate_round_up_matches_grid () =
  Array.iter
    (fun m ->
      let limit = m.Month_profile.runtime_limit in
      let grid = estimate_grid ~limit in
      let reference r =
        Option.value (Array.find_opt (fun g -> g >= r) grid) ~default:limit
      in
      let probes =
        List.concat_map
          (fun g -> [ g; Float.pred g; Float.succ g; g -. 1.0; g +. 1.0 ])
          (Array.to_list grid)
        @ [ 0.0; limit; Float.succ limit; 2.0 *. limit ]
      in
      List.iter
        (fun r ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s: round_up %h" m.Month_profile.label r)
            (reference r) (Estimate.round_up ~limit r))
        probes;
      let before = Gc.minor_words () in
      List.iter
        (fun r -> ignore (Sys.opaque_identity (Estimate.round_up ~limit r)))
        probes;
      let words = Gc.minor_words () -. before in
      Alcotest.(check bool)
        (Printf.sprintf "round_up allocated %.0f words" words)
        true (words < 8.0))
    Month_profile.all

let test_estimate_draw_bounds () =
  let rng = Simcore.Rng.create ~seed:5 in
  let limit = Simcore.Units.hours 12.0 in
  for _ = 1 to 2000 do
    let runtime = Simcore.Dist.log_uniform rng ~lo:60.0 ~hi:limit in
    let r = Estimate.draw rng ~limit ~runtime in
    Alcotest.(check bool) "R >= T" true (r >= runtime -. 1e-9);
    Alcotest.(check bool) "R <= limit (unless T near limit)" true
      (r <= Float.max limit runtime +. 1e-9)
  done

let test_estimate_draw_deterministic () =
  let limit = Simcore.Units.hours 12.0 in
  let draws seed =
    let rng = Simcore.Rng.create ~seed in
    List.map
      (fun runtime -> Estimate.draw rng ~limit ~runtime)
      [ 3600.0; 7200.0; 60.0; 40000.0 ]
  in
  Alcotest.(check (list (float 0.0))) "deterministic" (draws 3) (draws 3)

(* --- Month_profile --- *)

let test_month_profiles_complete () =
  Alcotest.(check int) "ten months" 10 (Array.length Month_profile.all);
  Array.iter
    (fun m ->
      Alcotest.(check int) "8 ranges" 8 (Array.length m.Month_profile.jobs8);
      Alcotest.(check int) "8 demands" 8 (Array.length m.Month_profile.demand8);
      Alcotest.(check int) "5 short" 5 (Array.length m.Month_profile.short5);
      Alcotest.(check int) "5 long" 5 (Array.length m.Month_profile.long5);
      let sum = Array.fold_left ( +. ) 0.0 m.Month_profile.jobs8 in
      Alcotest.(check bool)
        (m.Month_profile.label ^ " job percentages sum to ~100")
        true
        (sum > 95.0 && sum < 105.0))
    Month_profile.all

let test_month_find () =
  let m = Month_profile.find "7/03" in
  Alcotest.(check int) "n_jobs" 1399 m.Month_profile.n_jobs;
  Alcotest.(check (float 1e-9)) "load" 0.89 m.Month_profile.load;
  Alcotest.check_raises "unknown month" Not_found (fun () ->
      ignore (Month_profile.find "13/99"))

let test_runtime_limit_change () =
  (* Table 2: limit raised from 12h to 24h in December 2003 *)
  let h12 = Simcore.Units.hours 12.0 and h24 = Simcore.Units.hours 24.0 in
  Alcotest.(check (float 1.0)) "11/03 limit" h12
    (Month_profile.find "11/03").Month_profile.runtime_limit;
  Alcotest.(check (float 1.0)) "12/03 limit" h24
    (Month_profile.find "12/03").Month_profile.runtime_limit

let test_conditionals_valid () =
  Array.iter
    (fun m ->
      for c = 0 to 4 do
        let s = Month_profile.short_given_class m c in
        let l = Month_profile.long_given_class m c in
        Alcotest.(check bool) "p_short in [0,1]" true (s >= 0.0 && s <= 1.0);
        Alcotest.(check bool) "p_long in [0,1]" true (l >= 0.0 && l <= 1.0);
        Alcotest.(check bool) "p_short + p_long <= 1" true (s +. l <= 1.0 +. 1e-9)
      done)
    Month_profile.all

(* --- Mix_report --- *)

let test_mix_report_basic () =
  let jobs =
    [ job ~id:0 ~nodes:1 ~runtime:1800.0 ();
      job ~id:1 ~submit:1.0 ~nodes:64 ~runtime:(Simcore.Units.hours 6.0) () ]
  in
  let t =
    Trace.of_array ~measure_start:0.0 ~measure_end:100.0 (Array.of_list jobs)
  in
  let mix = Mix_report.of_trace ~capacity:128 t in
  Alcotest.(check int) "n_jobs" 2 mix.Mix_report.n_jobs;
  Alcotest.(check (float 1e-6)) "jobs8 range 0" 50.0 mix.Mix_report.jobs8.(0);
  Alcotest.(check (float 1e-6)) "jobs8 range 6" 50.0 mix.Mix_report.jobs8.(6);
  Alcotest.(check (float 1e-6)) "short5 class 0" 50.0 mix.Mix_report.short5.(0);
  Alcotest.(check (float 1e-6)) "long5 class 4" 50.0 mix.Mix_report.long5.(4)

let test_max_abs_diff () =
  Alcotest.(check (float 1e-9)) "diff" 3.0
    (Helpers.max_abs_diff [| 1.0; 5.0 |] [| 2.0; 2.0 |]);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Helpers.max_abs_diff: length mismatch") (fun () ->
      ignore (Helpers.max_abs_diff [| 1.0 |] [| 1.0; 2.0 |]))

(* [Estimate.draw] as it was written with [Float.min]/[Float.max]: the
   typed compares that replaced them must give the same bits for every
   positive, finite runtime and limit, from the same draws. *)
let float_min_max_draw =
  let small = Simcore.Dist.log_uniform ~lo:1.0 ~hi:2.0 in
  let large = Simcore.Dist.log_uniform ~lo:2.0 ~hi:20.0 in
  fun rng ~limit ~runtime ->
    let u = Simcore.Rng.unit_float rng in
    let factor =
      if u < 0.2 then 1.0 else if u < 0.2 +. 0.25 then small rng else large rng
    in
    let raw = runtime *. factor in
    let rounded = Estimate.round_up ~limit (Float.min raw limit) in
    Float.max rounded (Float.min runtime limit) |> Float.max runtime

let prop_draw_matches_float_min_max =
  let limits =
    Array.map (fun (m : Month_profile.t) -> m.runtime_limit) Month_profile.all
  in
  QCheck.Test.make ~name:"Estimate.draw = its Float.min/Float.max form"
    ~count:500
    QCheck.(triple int (float_range 1.0 2e5) (0 -- Array.length limits))
    (fun (seed, runtime, k) ->
      let limit = if k < Array.length limits then limits.(k) else runtime in
      let a = Simcore.Rng.create ~seed and b = Simcore.Rng.create ~seed in
      List.for_all
        (fun _ ->
          Int64.equal
            (Int64.bits_of_float (Estimate.draw a ~limit ~runtime))
            (Int64.bits_of_float (float_min_max_draw b ~limit ~runtime)))
        (List.init 20 Fun.id))

let suite =
  [
    Alcotest.test_case "job validation" `Quick test_job_validation;
    Alcotest.test_case "job area" `Quick test_job_area;
    Alcotest.test_case "size_range8" `Quick test_size_range8;
    Alcotest.test_case "node_class5" `Quick test_node_class5;
    Alcotest.test_case "runtime_class5" `Quick test_runtime_class5;
    Alcotest.test_case "compare_submit" `Quick test_compare_submit;
    Alcotest.test_case "trace sorts/windows" `Quick test_trace_sorts_and_windows;
    Alcotest.test_case "trace duplicate ids" `Quick test_trace_duplicate_ids;
    Alcotest.test_case "trace measured window" `Quick test_trace_measured_window;
    Alcotest.test_case "trace offered load" `Quick test_trace_offered_load;
    Alcotest.test_case "trace scale_load" `Quick test_trace_scale_load;
    Helpers.qcheck prop_trace_v_matches_reference;
    Helpers.qcheck prop_draw_matches_float_min_max;
    Alcotest.test_case "scale_load re-sorts squeezed ties" `Quick
      test_scale_load_ties_resorted;
    Alcotest.test_case "estimate round_up" `Quick test_estimate_round_up;
    Alcotest.test_case "estimate round_up = first grid value" `Quick
      test_estimate_round_up_matches_grid;
    Alcotest.test_case "estimate draw bounds" `Quick test_estimate_draw_bounds;
    Alcotest.test_case "estimate deterministic" `Quick
      test_estimate_draw_deterministic;
    Alcotest.test_case "month profiles complete" `Quick
      test_month_profiles_complete;
    Alcotest.test_case "month find" `Quick test_month_find;
    Alcotest.test_case "runtime limit change 12/03" `Quick
      test_runtime_limit_change;
    Alcotest.test_case "bucket conditionals valid" `Quick
      test_conditionals_valid;
    Alcotest.test_case "mix report basic" `Quick test_mix_report_basic;
    Alcotest.test_case "mix max_abs_diff" `Quick test_max_abs_diff;
  ]
