(* Run-health observability: the Simcore.Metrics registry (zero
   allocation per observation, OpenMetrics exposition, the engine's
   search-effort instruments),
   the Sim.Series bounded sampler (deterministic halving invariants,
   engine integration, pool-width independence of exports) and the
   Timeline min/max accessors they report through. *)

module M = Simcore.Metrics
module TL = Simcore.Stats.Timeline

(* --- Timeline min/max --- *)

let test_timeline_min_max () =
  let tl = TL.create ~start:0.0 in
  Alcotest.(check (float 0.0)) "empty min" 0.0 (TL.min_value tl ~upto:10.0);
  Alcotest.(check (float 0.0)) "empty max" 0.0 (TL.max_value tl ~upto:10.0);
  TL.record tl ~now:0.0 ~value:5.0;
  TL.record tl ~now:10.0 ~value:1.0;
  TL.record tl ~now:20.0 ~value:9.0;
  (* value 9 has held for no time yet: extremes cover [0, 20] *)
  Alcotest.(check (float 1e-9)) "min over held spans" 1.0
    (TL.min_value tl ~upto:20.0);
  Alcotest.(check (float 1e-9)) "max over held spans" 5.0
    (TL.max_value tl ~upto:20.0);
  (* extend past the last step: the newest value now counts *)
  Alcotest.(check (float 1e-9)) "max past last step" 9.0
    (TL.max_value tl ~upto:25.0);
  Alcotest.(check (float 1e-9)) "min past last step" 1.0
    (TL.min_value tl ~upto:25.0);
  (* consistency with the time-weighted average *)
  let avg = TL.average tl ~upto:25.0 in
  Alcotest.(check bool) "min <= avg <= max" true
    (1.0 <= avg && avg <= 9.0)

let test_timeline_same_instant () =
  let tl = TL.create ~start:0.0 in
  (* same-instant rewrites replace, they never count as held values *)
  TL.record tl ~now:5.0 ~value:100.0;
  TL.record tl ~now:5.0 ~value:2.0;
  TL.record tl ~now:15.0 ~value:3.0;
  Alcotest.(check (float 1e-9)) "overwritten value never held" 2.0
    (TL.max_value tl ~upto:15.0);
  Alcotest.(check (float 1e-9)) "min before first step is initial 0" 0.0
    (TL.min_value tl ~upto:15.0)

(* --- Metrics registry --- *)

let test_metrics_basics () =
  let reg = M.create () in
  let c = M.counter reg "nodes" ~help:"nodes visited" in
  let g = M.gauge reg "queue" in
  let h = M.histogram reg "latency" in
  M.incr c;
  M.add c 41;
  Alcotest.(check int) "counter" 42 (M.counter_value c);
  M.set g 3.0;
  M.set g 7.5;
  List.iter (M.observe h) [ 1; 2; 4; 1000 ];
  let lines = Helpers.openmetrics_lines reg in
  List.iter
    (fun (name, line) ->
      Alcotest.(check bool) name true (List.mem line lines))
    [
      ("gauge last write wins", "queue 7.5");
      ("histogram count", "latency_count 4");
      ("histogram total", "latency_sum 1007");
      ("histogram median bucket", "latency_bucket{le=\"3\"} 2");
    ]

let test_metrics_names () =
  let reg = M.create () in
  let _ = M.counter reg "ok_name:x" in
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Metrics: duplicate metric name \"ok_name:x\"")
    (fun () -> ignore (M.counter reg "ok_name:x"));
  Alcotest.check_raises "invalid charset"
    (Invalid_argument "Metrics: invalid metric name \"bad name\"")
    (fun () -> ignore (M.gauge reg "bad name"));
  Alcotest.check_raises "leading digit"
    (Invalid_argument "Metrics: invalid metric name \"1bad\"")
    (fun () -> ignore (M.histogram reg "1bad"))

(* The section-7 contract: a registry records into preallocated
   storage — zero words per observation.  (Off is not passing a
   registry at all.) *)
let test_metrics_on_zero_alloc () =
  let reg = M.create () in
  let c = M.counter reg "c" in
  let g = M.gauge reg "g" in
  let h = M.histogram reg "h" in
  let burn () =
    for i = 1 to 1000 do
      M.incr c;
      M.add c i;
      M.set g 42.5;
      M.observe h i
    done
  in
  burn ();
  (* warm-up *)
  let before = Gc.minor_words () in
  burn ();
  Alcotest.(check (float 0.0)) "on adds 0 minor words per observation" 0.0
    (Gc.minor_words () -. before)

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  go 0

let test_openmetrics_exposition () =
  let reg = M.create () in
  let c = M.counter reg "jobs" ~help:"jobs started" in
  let g = M.gauge reg "queue" in
  let h = M.histogram reg "wait" in
  M.add c 3;
  M.set g 17.0;
  List.iter (M.observe h) [ 1; 2; 1000 ];
  let c2 = M.counter reg "search_nodes" in
  M.add c2 5;
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  M.pp_openmetrics fmt reg;
  Format.pp_print_flush fmt ();
  let s = Buffer.contents buf in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "contains %S" needle) true
        (contains s needle))
    [
      "# TYPE jobs counter"; "# HELP jobs jobs started"; "jobs_total 3";
      "# TYPE queue gauge"; "queue 17";
      "# TYPE wait histogram"; "wait_count 3"; "wait_sum 1003";
      "le=\"+Inf\"} 3";
      "# TYPE search_nodes counter"; "search_nodes_total 5";
    ];
  (* cumulative buckets end at the count, document ends with EOF *)
  Alcotest.(check bool) "ends with # EOF" true
    (let suffix = "# EOF\n" in
     String.length s >= String.length suffix
     && String.sub s (String.length s - String.length suffix)
          (String.length suffix)
        = suffix)

(* --- Series: deterministic bounded downsampling --- *)

(* Reference model: observation i of a generated run. *)
type obs = { ot : float; ob : int; oq : int; od : int; orn : int; ow : float }

(* The engine's report of a decision that started [started]. *)
let decision ?(started = []) ~now ~busy ~queue ~demand ~running ~max_wait ()
    : Sim.Engine.decision =
  {
    now;
    seen = queue + List.length started;
    started;
    queue;
    demand;
    max_wait;
    busy;
    running;
    probe = None;
  }

(* [Series.create]'s sample capacity *)
let capacity = 4096

let feed obs_list =
  let s = Sim.Series.create ~policy:"t" () in
  List.iter
    (fun o ->
      Sim.Series.observe s
        (decision ~now:o.ot ~busy:o.ob ~queue:o.oq ~demand:o.od
           ~running:o.orn ~max_wait:o.ow ()))
    obs_list;
  s

let obs_of_ints ints =
  List.mapi
    (fun i (a, b, c, d) ->
      {
        ot = float_of_int (i * 10);
        ob = a mod 129;
        oq = b mod 50;
        od = c mod 600;
        orn = d mod 30;
        ow = float_of_int ((a + b) mod 7200);
      })
    ints

(* Every committed sample must summarize exactly its stride-sized slice
   of the observation sequence: instantaneous values from the slice's
   last observation, envelope over the whole slice. *)
let check_series_against_model obs_list s =
  let obs = Array.of_list obs_list in
  let samples = Sim.Series.samples s in
  let stride = Sim.Series.stride s in
  let ok = ref true in
  let check b = if not b then ok := false in
  check (List.length samples <= capacity);
  check (Sim.Series.observed s = Array.length obs);
  let committed = List.fold_left (fun a p -> a + p.Sim.Series.span) 0 samples in
  check (committed <= Array.length obs);
  check (Array.length obs - committed < stride);
  let last_t = ref neg_infinity in
  List.iteri
    (fun j p ->
      check (p.Sim.Series.span = stride);
      check (p.Sim.Series.t >= !last_t);
      last_t := p.Sim.Series.t;
      let first = j * stride in
      let last = first + stride - 1 in
      let slice = Array.sub obs first (last - first + 1) in
      let last_o = slice.(Array.length slice - 1) in
      check (p.Sim.Series.t = last_o.ot);
      let fold f init g =
        Array.fold_left (fun acc o -> f acc (g o)) init slice
      in
      let int_band (b : int Sim.Series.band) g =
        check (b.v = g last_o);
        check (b.lo = fold min max_int g);
        check (b.hi = fold max min_int g)
      in
      int_band p.Sim.Series.busy (fun o -> o.ob);
      int_band p.Sim.Series.queue (fun o -> o.oq);
      int_band p.Sim.Series.demand (fun o -> o.od);
      int_band p.Sim.Series.running (fun o -> o.orn);
      let w = p.Sim.Series.max_wait in
      check (w.v = last_o.ow);
      check (w.lo = fold Float.min infinity (fun o -> o.ow));
      check (w.hi = fold Float.max neg_infinity (fun o -> o.ow)))
    samples;
  !ok

let downsampling_qcheck =
  QCheck.Test.make ~count:30
    ~name:"series halving preserves per-slice envelopes"
    QCheck.(list_of_size (Gen.int_range 0 (3 * capacity))
              (quad small_nat small_nat small_nat small_nat))
    (fun ints ->
      let obs = obs_of_ints ints in
      check_series_against_model obs (feed obs))

let test_series_halving_exact () =
  (* 5 x capacity observations: three halvings (after 1, 2 and 4 x
     capacity) take the stride to 8 and leave capacity / 2 samples; the
     last capacity observations commit capacity / 8 more *)
  let n = 5 * capacity in
  let obs =
    obs_of_ints (List.init n (fun i -> (i, 2 * i, 3 * i, i mod 7)))
  in
  let s = feed obs in
  Alcotest.(check int) "observed" n (Sim.Series.observed s);
  Alcotest.(check int) "stride" 8 (Sim.Series.stride s);
  Alcotest.(check int) "samples" ((capacity / 2) + (capacity / 8))
    (Sim.Series.length s);
  Alcotest.(check bool) "model invariants" true
    (check_series_against_model obs s)

let test_series_time_backwards () =
  let s = Sim.Series.create ~policy:"t" () in
  let idle now =
    decision ~now ~busy:0 ~queue:0 ~demand:0 ~running:0 ~max_wait:0.0 ()
  in
  Sim.Series.observe s (idle 10.0);
  Alcotest.check_raises "time must not go backwards"
    (Invalid_argument "Series.observe: time went backwards") (fun () ->
      Sim.Series.observe s (idle 9.0))

let test_series_excess_and_summary () =
  let s = Sim.Series.create ~threshold:100.0 ~policy:"t" () in
  Alcotest.(check int) "no observation, no summary" 0
    (List.length (Sim.Series.summary s));
  (* each decision starts one job: waits 50 s and 350 s at start *)
  let job ~id ~submit =
    Workload.Job.v ~id ~submit ~nodes:1 ~runtime:10.0 ~requested:10.0
  in
  Sim.Series.observe s
    (decision ~started:[ job ~id:0 ~submit:950.0 ] ~now:1000.0 ~busy:10
       ~queue:2 ~demand:64 ~running:1 ~max_wait:30.0 ());
  (* below threshold *)
  Alcotest.(check (float 0.0)) "below threshold ignored" 0.0
    (Sim.Series.cumulative_excess s);
  Sim.Series.observe s
    (decision ~started:[ job ~id:1 ~submit:750.0 ] ~now:1100.0 ~busy:20
       ~queue:4 ~demand:32 ~running:2 ~max_wait:60.0 ());
  Alcotest.(check (float 1e-9)) "excess accumulates" 250.0
    (Sim.Series.cumulative_excess s);
  let rows = Sim.Series.summary s in
  Alcotest.(check int) "six signals" 6 (List.length rows);
  let row label = List.find (fun r -> r.Sim.Series.label = label) rows in
  let busy = row "busy_nodes" in
  Alcotest.(check (float 1e-9)) "busy last" 20.0 busy.Sim.Series.last;
  Alcotest.(check (float 1e-9)) "busy avg time-weighted" 10.0
    busy.Sim.Series.avg;
  Alcotest.(check (float 1e-9)) "busy lo" 10.0 busy.Sim.Series.lo;
  Alcotest.(check (float 1e-9)) "busy hi over held spans" 10.0
    busy.Sim.Series.hi;
  let excess = row "excess_s" in
  Alcotest.(check (float 1e-9)) "excess last" 250.0 excess.Sim.Series.last

(* --- engine integration --- *)

let small_trace () =
  let config =
    { Workload.Generator.default_config with scale = 0.04; seed = 7 }
  in
  Workload.Generator.month ~config (Workload.Month_profile.find "7/03")

let test_engine_feeds_series_and_metrics () =
  let trace = small_trace () in
  let policy = Sched.Backfill.fcfs in
  let plain = Sim.Engine.run ~r_star:Sim.Engine.Actual ~policy trace in
  let series = Sim.Series.create ~policy:"fcfs" () in
  let metrics = M.create () in
  let record = Sim.Run_metrics.observer metrics policy in
  let observe d =
    Sim.Series.observe series d;
    record d
  in
  let sampled =
    Sim.Engine.run ~observe ~r_star:Sim.Engine.Actual ~policy trace
  in
  (* observational only: the simulation itself is unchanged *)
  Alcotest.(check int) "same decisions" plain.Sim.Engine.decisions
    sampled.Sim.Engine.decisions;
  Alcotest.(check int) "same outcomes"
    (List.length plain.Sim.Engine.outcomes)
    (List.length sampled.Sim.Engine.outcomes);
  (* one observation per decision point *)
  Alcotest.(check int) "observed = decisions" sampled.Sim.Engine.decisions
    (Sim.Series.observed series);
  Alcotest.(check bool) "summary present" true
    (Sim.Series.summary series <> []);
  (* the engine's instruments agree with the run *)
  let n_jobs = Workload.Trace.length trace in
  let om = Helpers.openmetrics_lines metrics in
  let find_line needle lines = List.exists (fun l -> contains l needle) lines in
  Alcotest.(check bool) "decisions counter" true
    (find_line
       (Printf.sprintf "schedsim_decisions_total %d"
          sampled.Sim.Engine.decisions)
       om);
  Alcotest.(check bool) "started = jobs" true
    (find_line (Printf.sprintf "schedsim_jobs_started_total %d" n_jobs) om);
  Alcotest.(check bool) "completed = jobs" true
    (find_line (Printf.sprintf "schedsim_jobs_completed_total %d" n_jobs) om);
  Alcotest.(check bool) "queue drains to 0" true
    (find_line "schedsim_queue_jobs 0" om)

(* The engine feeds the search-effort instruments from the policy's
   probe; they agree with the policy's own statistics. *)
let test_search_policy_metrics () =
  let trace = small_trace () in
  let policy, stats =
    Core.Search_policy.policy (Core.Search_policy.dds_lxf_dynb ~budget:200)
  in
  (* the search runs exactly when the queue is non-empty *)
  let searched = ref 0 in
  let policy =
    {
      policy with
      Sched.Policy.decide =
        (fun ctx ->
          if ctx.Sched.Policy.waiting <> [] then incr searched;
          policy.Sched.Policy.decide ctx);
    }
  in
  let metrics = M.create () in
  let _ =
    Sim.Engine.run
      ~observe:(Sim.Run_metrics.observer metrics policy)
      ~r_star:Sim.Engine.Actual ~policy trace
  in
  let lines = Helpers.openmetrics_lines metrics in
  Alcotest.(check bool) "searched" true (!searched > 0);
  List.iter
    (fun line -> Alcotest.(check bool) line true (List.mem line lines))
    [
      Printf.sprintf "schedsim_search_decisions_total %d" !searched;
      Printf.sprintf "schedsim_search_nodes_total %d"
        (stats ()).total_nodes;
    ]

(* --- report rendering --- *)

let test_report_page_structure () =
  let trace = small_trace () in
  let series = Sim.Series.create ~policy:"fcfs" () in
  let _ =
    Sim.Engine.run ~observe:(Sim.Series.observe series)
      ~r_star:Sim.Engine.Actual ~policy:Sched.Backfill.fcfs trace
  in
  let html = Sim.Report.page ~title:"t" [ ("fcfs", series) ] in
  Alcotest.(check bool) "doctype" true (contains html "<!doctype html>");
  Alcotest.(check bool) "no JavaScript" false (contains html "<script");
  Alcotest.(check bool) "closes" true (contains html "</html>");
  let count needle =
    let n = String.length html and m = String.length needle in
    let rec go i acc =
      if i + m > n then acc
      else if String.sub html i m = needle then go (i + m) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "six charts" 6 (count "<svg");
  Alcotest.(check bool) "lines drawn" true (count "polyline class=\"line\"" >= 6);
  (* single run: no legend box (the title names it) *)
  Alcotest.(check bool) "no legend for one run" false
    (contains html "class=\"legend\"");
  let two =
    Sim.Report.page ~title:"t" [ ("a", series); ("b", series) ]
  in
  Alcotest.(check bool) "legend for two runs" true
    (contains two "class=\"legend\"")

(* --- exports independent of the pool width --- *)

let with_env bindings f =
  let saved = List.map (fun (k, _) -> (k, Sys.getenv_opt k)) bindings in
  List.iter (fun (k, v) -> Unix.putenv k v) bindings;
  Fun.protect f ~finally:(fun () ->
      List.iter
        (fun (k, v) -> Unix.putenv k (Option.value v ~default:""))
        saved)

let test_series_export_jobs_invariant () =
  with_env
    [
      ("REPRO_SCALE", "0.1"); ("REPRO_MONTHS", "1/04"); ("REPRO_MAXL", "1000");
    ]
    (fun () ->
      let saved_jobs = Experiments.Common.jobs () in
      Fun.protect
        ~finally:(fun () ->
          Experiments.Common.set_series false;
          Experiments.Common.set_jobs saved_jobs;
          Experiments.Common.reset_caches ();
          Experiments.Common.shutdown_pool ())
        (fun () ->
          Experiments.Common.set_series true;
          let render jobs =
            Experiments.Common.set_jobs jobs;
            Experiments.Common.reset_caches ();
            let sink = Buffer.create 4096 in
            let sfmt = Format.formatter_of_buffer sink in
            Experiments.Fig3.run sfmt;
            Format.pp_print_flush sfmt ();
            let buf = Buffer.create 4096 in
            let fmt = Format.formatter_of_buffer buf in
            Experiments.Common.pp_series fmt;
            Format.pp_print_flush fmt ();
            let html =
              Sim.Report.page ~title:"fig3"
                (Experiments.Common.series_runs ())
            in
            (Buffer.contents buf, html)
          in
          let jsonl_seq, html_seq = render 1 in
          let jsonl_par, html_par = render 4 in
          Alcotest.(check bool) "sampled something" true
            (String.length jsonl_seq > 0);
          Alcotest.(check bool) "jsonl carries the schema" true
            (contains jsonl_seq "run_series/1");
          Alcotest.(check string) "series JSONL independent of jobs"
            jsonl_seq jsonl_par;
          Alcotest.(check string) "report HTML independent of jobs" html_seq
            html_par))

let suite =
  [
    Alcotest.test_case "timeline min/max over held spans" `Quick
      test_timeline_min_max;
    Alcotest.test_case "timeline same-instant rewrite" `Quick
      test_timeline_same_instant;
    Alcotest.test_case "metrics counter/gauge/histogram" `Quick
      test_metrics_basics;
    Alcotest.test_case "metric name validation" `Quick test_metrics_names;
    Alcotest.test_case "metrics on adds zero allocation" `Quick
      test_metrics_on_zero_alloc;
    Alcotest.test_case "openmetrics exposition format" `Quick
      test_openmetrics_exposition;
    Alcotest.test_case "observe rejects backwards time" `Quick
      test_series_time_backwards;
    Alcotest.test_case "excess threshold and summaries" `Quick
      test_series_excess_and_summary;
    Helpers.qcheck downsampling_qcheck;
    Alcotest.test_case "halving to stride 8 matches the model" `Quick
      test_series_halving_exact;
    Alcotest.test_case "engine feeds series and instruments" `Quick
      test_engine_feeds_series_and_metrics;
    Alcotest.test_case "search policy exposes its run-registry counters" `Quick
      test_search_policy_metrics;
    Alcotest.test_case "report page structure (no JS, 6 charts)" `Quick
      test_report_page_structure;
    Alcotest.test_case "series export independent of REPRO_JOBS" `Quick
      test_series_export_jobs_invariant;
  ]
