(* End-to-end scheduler benchmark (see README.md in this directory).

   main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]

   Generates one workload from the seed, simulates it through the
   public entry point of each layer, validates every schedule and
   prints every metric by name with its unit.  The last line of
   standard output is one JSON object {correct, attempted, failed,
   metrics}.

   A workload is a fixed number of independently generated copies of
   one month ("months" below; month k uses generator seed
   [seed + k * month_stride], so month 0 is the seed's own trace).
   One pass simulates each month once.  Passes repeat while the time
   budget allows another whole pass, so every month weighs the same.

   --trace 0 reports the end-to-end metrics from untraced passes: the
   only instrumentation on the simulation path is two monotonic clock
   reads per decision into a preallocated buffer, plus a machine-speed
   probe between decisions (see [probe_chunk]) by which every timing is
   scaled to a reference speed.  --trace 1 runs one
   pass untraced, then month 0 again traced, recording spans and
   per-decision observations at the layer boundaries, and reports the
   per-layer metrics plus the tracing overhead.  Exit status is 1 when
   a schedule fails validation or a repetition does not reproduce the
   first one. *)

let now = Simcore.Clock.monotonic_s

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type workload = {
  name : string;
  scale : float;  (** generator scale (job count and time axis) *)
  rho : float option;  (** target offered load; [None] = original *)
  r_star : Sim.Engine.r_star;
  policy : unit -> Sched.Policy.t * (unit -> int);
      (** fresh policy instance plus its cumulative search-node count *)
  months : int;  (** independent months per pass *)
  setups : int;
      (** timed set-ups of each month in the first pass, for [setup_s];
          later passes set each month up once *)
}

let month_stride = 1_000_003

(* Every workload replays the same month, January 2004 (the month of
   the paper's Fig. 6). *)
let month = Workload.Month_profile.find "1/04"

let search ~budget () =
  let policy, stats =
    Core.Search_policy.policy (Core.Search_policy.dds_lxf_dynb ~budget)
  in
  (policy, fun () -> (stats ()).Core.Search_policy.total_nodes)

let backfill () = (Sched.Backfill.fcfs, fun () -> 0)

let workloads =
  [
    {
      name = "search-deepq";
      scale = 1.0;
      rho = Some 0.9;
      r_star = Sim.Engine.Requested;
      policy = search ~budget:1000;
      months = 20;
      setups = 3;
    };
    {
      name = "backfill-long";
      scale = 40.0;
      rho = None;
      r_star = Sim.Engine.Requested;
      policy = backfill;
      months = 3;
      setups = 1;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile of the first [n] entries of [a]. *)
let percentile_f a n q =
  if n = 0 then 0.0
  else begin
    let s = Array.sub a 0 n in
    Array.sort Float.compare s;
    s.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))
  end

let percentile_i a n q = percentile_f (Array.map float_of_int a) n q

let ratio num den = if den = 0.0 then 0.0 else num /. den
let fi = float_of_int

(* ------------------------------------------------------------------ *)
(* Machine speed                                                       *)

(* The benchmark shares its machine with other tenants, whose load
   changes how fast this process runs by 20-60% from one second or
   minute to the next.  A probe measures that speed while a month is
   simulated: at most once per [probe_interval_s] of wall time, between
   two decisions, it times [probe_chunk], a fixed few microseconds of
   integer work that allocates nothing and calls no code of the
   libraries under test.  Timings are reported at the reference speed,
   at which one chunk takes [probe_nominal_s]: a wall time measured
   while chunks took [c] on average is scaled by [probe_nominal_s / c]. *)
let probe_interval_s = 1e-3
let probe_nominal_s = 5e-6
let probe_buf = Array.make 96 0

(* Insertion sort of a fixed pseudo-random sequence. *)
let probe_chunk () =
  let a = probe_buf in
  let x = ref 0x2545F491 in
  for i = 0 to Array.length a - 1 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    a.(i) <- !x
  done;
  for i = 1 to Array.length a - 1 do
    let v = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > v do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- v
  done;
  ignore (Sys.opaque_identity a.(0))

(* The slowdown over [n] back-to-back chunks, for code such as trace
   generation that has no decision boundaries to probe between. *)
let probe_slowdown n =
  let t0 = now () in
  for _ = 1 to n do
    probe_chunk ()
  done;
  (now () -. t0) /. fi n /. probe_nominal_s

(* ------------------------------------------------------------------ *)
(* Layer calls                                                         *)

type setup = {
  trace : Workload.Trace.t;
  generate_s : float;
  scale_load_s : float;
}

let setup ?spans w ~seed =
  let config =
    { Workload.Generator.default_config with seed; scale = w.scale }
  in
  let t0 = now () in
  let base = Workload.Generator.month ~config month in
  let t1 = now () in
  let trace =
    match w.rho with
    | None -> base
    | Some target ->
        Workload.Trace.scale_load base
          ~capacity:Workload.Month_profile.capacity ~target
  in
  let t2 = now () in
  Option.iter
    (fun s ->
      Spans.record s ~name:"workload.generate" ~parent:"schedbench"
        ~start_s:t0 ~stop_s:t1;
      Spans.record s ~name:"workload.scale_load" ~parent:"schedbench"
        ~start_s:t1 ~stop_s:t2)
    spans;
  { trace; generate_s = t1 -. t0; scale_load_s = t2 -. t1 }

(* Per-decision observations of a traced repetition, in arrays
   preallocated for the most decisions a trace can produce (one per
   arrival and one per departure).  Index = decision number. *)
type observations = {
  decide_start : float array;
  decide_stop : float array;
  profile_start : float array;
  profile_stop : float array;
  queue : int array;
  running : int array;
  segments : int array;
  nodes : int array;  (** search nodes; 0 where the search did not run *)
  mutable starts : int;
  mutable useful : int;
  mutable searched : int;
  mutable searched_decide_s : float;
  mutable leaves : int;
  mutable iterations : int;
  mutable exhausted : int;
  mutable improvements : int;
  mutable winner_iter0 : int;
}

let observations cap =
  {
    decide_start = Array.make cap 0.0;
    decide_stop = Array.make cap 0.0;
    profile_start = Array.make cap 0.0;
    profile_stop = Array.make cap 0.0;
    queue = Array.make cap 0;
    running = Array.make cap 0;
    segments = Array.make cap 0;
    nodes = Array.make cap 0;
    starts = 0;
    useful = 0;
    searched = 0;
    searched_decide_s = 0.0;
    leaves = 0;
    iterations = 0;
    exhausted = 0;
    improvements = 0;
    winner_iter0 = 0;
  }

let observe o i (ctx : Sched.Policy.context) started
    (probe : Simcore.Telemetry.Probe.t option) ~t0 ~t1 =
  o.decide_start.(i) <- t0;
  o.decide_stop.(i) <- t1;
  o.queue.(i) <- List.length ctx.waiting;
  o.running.(i) <- Cluster.Running_set.count ctx.running;
  let k = List.length started in
  o.starts <- o.starts + k;
  if k > 0 then o.useful <- o.useful + 1;
  (match probe with
  | Some p when ctx.waiting <> [] ->
      o.nodes.(i) <- p.nodes;
      o.searched <- o.searched + 1;
      o.searched_decide_s <- o.searched_decide_s +. (t1 -. t0);
      o.leaves <- o.leaves + p.leaves;
      o.iterations <- o.iterations + p.iterations;
      if p.exhausted then o.exhausted <- o.exhausted + 1;
      o.improvements <- o.improvements + p.improvements;
      if p.winner_iteration = 0 then o.winner_iter0 <- o.winner_iter0 + 1
  | _ -> ());
  (* one extra, timed availability-profile build on the same context *)
  let p0 = now () in
  let profile = Sched.Policy.profile_of ctx in
  o.profile_stop.(i) <- now ();
  o.profile_start.(i) <- p0;
  o.segments.(i) <- Cluster.Profile.segment_count profile

type quality = {
  decisions : int;
  nodes_total : int;
  avg_wait_h : float;
  max_wait_h : float;
  avg_bsld : float;
  schedule_hash : int;
}

type rep = {
  jobs : int;
  wall_s : float;  (** wall time of the simulation, probes excluded *)
  slowdown : float;
      (** mean probe chunk time ÷ [probe_nominal_s] during the simulation *)
  latencies : float array;  (** decide wall time of each decision *)
  quality : quality;
  aggregate_s : float;
  minor_words : float;
  major_collections : int;
  cpu_s : float;
  obs : observations option;
}

(* One simulation of the trace, the outcome of every job, and the
   outcomes of the measured window.  The engine entry point is
   [Sim.Engine.run], the call under [Sim.Run.simulate]: the validator
   needs every job's outcome, where [Sim.Run.simulate] keeps only the
   measured window. *)
let simulate ?spans w trace ~traced =
  let policy, nodes_total = w.policy () in
  let cap = (2 * Workload.Trace.length trace) + 1 in
  let latencies = Array.make cap 0.0 in
  let count = ref 0 in
  let obs = if traced then Some (observations cap) else None in
  let inner = policy.Sched.Policy.decide in
  let probe = policy.Sched.Policy.probe in
  let probe_s = ref 0.0 in
  let probes = ref 0 in
  let last_probe = ref 0.0 in
  let decide ctx =
    let t0 = now () in
    let started = inner ctx in
    let t1 = now () in
    let i = !count in
    latencies.(i) <- t1 -. t0;
    count := i + 1;
    (match obs with
    | None -> ()
    | Some o -> observe o i ctx started probe ~t0 ~t1);
    if t1 -. !last_probe > probe_interval_s then begin
      let p0 = now () in
      probe_chunk ();
      let p1 = now () in
      probe_s := !probe_s +. (p1 -. p0);
      incr probes;
      last_probe := p1
    end;
    started
  in
  let policy = { policy with Sched.Policy.decide } in
  let gc0 = Gc.quick_stat () in
  let cpu0 = Unix.times () in
  let t0 = now () in
  let result = Sim.Engine.run ~r_star:w.r_star ~policy trace in
  let t1 = now () in
  let cpu1 = Unix.times () in
  let gc1 = Gc.quick_stat () in
  let measured =
    List.filter
      (fun (o : Metrics.Outcome.t) -> Workload.Trace.in_window trace o.job)
      result.outcomes
  in
  let avg_queue_length =
    Sim.Engine.windowed_queue_average result.queue_samples
      ~from_:(Workload.Trace.measure_start trace)
      ~upto:(Workload.Trace.measure_end trace)
  in
  let a0 = now () in
  let agg = Metrics.Aggregate.compute ~avg_queue_length measured in
  let a1 = now () in
  Option.iter
    (fun s ->
      Spans.record s ~name:"sim.run" ~parent:"schedbench" ~start_s:t0
        ~stop_s:t1;
      Spans.record s ~name:"metrics.aggregate" ~parent:"schedbench"
        ~start_s:a0 ~stop_s:a1)
    spans;
  let schedule_hash =
    List.fold_left
      (fun h (o : Metrics.Outcome.t) -> Hashtbl.hash (h, o.job.id, o.start))
      0 result.outcomes
  in
  ( {
    jobs = Workload.Trace.length trace;
    wall_s = t1 -. t0 -. !probe_s;
    slowdown =
      (if !probes = 0 then 1.0
       else !probe_s /. fi !probes /. probe_nominal_s);
    latencies = Array.sub latencies 0 !count;
    quality =
      {
        decisions = result.decisions;
        nodes_total = nodes_total ();
        avg_wait_h = Metrics.Aggregate.avg_wait_hours agg;
        max_wait_h = Metrics.Aggregate.max_wait_hours agg;
        avg_bsld = agg.avg_bounded_slowdown;
        schedule_hash;
      };
    aggregate_s = a1 -. a0;
    minor_words = gc1.minor_words -. gc0.minor_words;
    major_collections = gc1.major_collections - gc0.major_collections;
    cpu_s =
      cpu1.tms_utime +. cpu1.tms_stime
      -. (cpu0.tms_utime +. cpu0.tms_stime)
      -. !probe_s;
    obs;
  },
    result.outcomes,
    measured )

(* Jobs the validator names in a violation, plus one for a violation
   that names none. *)
let failed_jobs (report : Schedcheck.Report.t) =
  let ids = Hashtbl.create 16 in
  let anonymous = ref 0 in
  List.iter
    (fun (v : Schedcheck.Report.violation) ->
      if v.jobs = [] then incr anonymous
      else List.iter (fun id -> Hashtbl.replace ids id ()) v.jobs)
    report.violations;
  Hashtbl.length ids + !anonymous

let validate w trace outcomes =
  let policy, _ = w.policy () in
  let r_star =
    match w.r_star with
    | Sim.Engine.Requested -> Some (fun (j : Workload.Job.t) -> j.requested)
    | Sim.Engine.Actual | Sim.Engine.Predicted -> None
  in
  Schedcheck.Validator.validate
    ~expect:(Schedcheck.Validator.expectation_of_policy policy.name)
    ?r_star ~subject:policy.name ~trace ~outcomes ()


(* ------------------------------------------------------------------ *)
(* Running a workload                                                  *)

let words_mb w = fi w *. fi (Sys.word_size / 8) /. 1e6
let heap_mb () = words_mb (Gc.quick_stat ()).top_heap_words

let jobs_per_s r = fi r.jobs /. r.wall_s
let decision_ms q r = 1e3 *. percentile_f r.latencies (Array.length r.latencies) q

(* The same timings at the reference speed (see [probe_chunk]). *)
let ref_wall_s r = r.wall_s /. r.slowdown
let ref_decision_ms q r = decision_ms q r /. r.slowdown

(* Where --trace 1 writes the Chrome file, relative to the repository
   root run.py runs from. *)
let out_dir = "schedbench/out"

(* Per-decision spans written to the Chrome file: those of the first
   this many decisions of the traced repetition.  Every decision still
   feeds the per-layer metrics. *)
let chrome_decisions = 5000

let per_layer ~setup0 ~heap_after_setup ~peak_heap_mb ~quality ~first
    ~traced ~violations ~validate_s spans =
  let o = Option.get traced.obs in
  let n = traced.quality.decisions in
  let total a b =
    let s = ref 0.0 in
    for i = 0 to n - 1 do
      s := !s +. (b.(i) -. a.(i))
    done;
    !s
  in
  let decide_s = total o.decide_start o.decide_stop in
  let sim_self_s =
    traced.wall_s -. decide_s -. total o.profile_start o.profile_stop
  in
  let profile_us =
    Array.init n (fun i -> 1e6 *. (o.profile_stop.(i) -. o.profile_start.(i)))
  in
  let searched_nodes =
    Array.of_list
      (List.filter (( < ) 0) (Array.to_list (Array.sub o.nodes 0 n)))
  in
  let searched_n = Array.length searched_nodes in
  let nodes = fi traced.quality.nodes_total in
  (* the untraced run of the same month, for the tracing overhead *)
  let u = List.hd first in
  for i = 0 to min n chrome_decisions - 1 do
    Spans.record spans ~id:i ~name:"sched.decide" ~parent:"sim.run"
      ~start_s:o.decide_start.(i) ~stop_s:o.decide_stop.(i);
    Spans.record spans ~id:i ~name:"cluster.profile_of" ~parent:"sim.run"
      ~start_s:o.profile_start.(i) ~stop_s:o.profile_stop.(i)
  done;
  [
    ("workload.generate_s", setup0.generate_s, "s");
    ("workload.scale_load_s", setup0.scale_load_s, "s");
    ("workload.jobs", fi (Workload.Trace.length setup0.trace), "count");
    ("workload.heap_mb", heap_after_setup, "MB");
    ("sim.decisions", fi n, "count");
    ("sim.self_s", sim_self_s, "s");
    ("sim.wall_jobs_per_s", jobs_per_s u, "jobs/s");
    ("sim.self_us_per_decision", 1e6 *. ratio sim_self_s (fi n), "us");
    ("sim.minor_words_per_decision", ratio u.minor_words (fi n), "words");
    ("sim.major_collections", fi u.major_collections, "count");
    ("sim.peak_heap_mb", peak_heap_mb, "MB");
    ("sched.decide_s", decide_s, "s");
    ("sched.queue_len_p50", percentile_i o.queue n 0.5, "jobs");
    ("sched.queue_len_p99", percentile_i o.queue n 0.99, "jobs");
    ("sched.running_p50", percentile_i o.running n 0.5, "jobs");
    ("sched.starts_per_decision", ratio (fi o.starts) (fi n), "jobs");
    ("sched.useful_decision_frac", ratio (fi o.useful) (fi n), "ratio");
    ("cluster.profile_of_us_p50", percentile_f profile_us n 0.5, "us");
    ("cluster.profile_of_us_p99", percentile_f profile_us n 0.99, "us");
    ("cluster.segments_p50", percentile_i o.segments n 0.5, "count");
    ("cluster.segments_p99", percentile_i o.segments n 0.99, "count");
    ("core.searched_decisions", fi o.searched, "count");
    ("core.nodes_total", nodes, "count");
    ( "core.nodes_per_decision_p50",
      percentile_i searched_nodes searched_n 0.5,
      "count" );
    ( "core.nodes_per_decision_p99",
      percentile_i searched_nodes searched_n 0.99,
      "count" );
    ("core.nodes_per_ms", ratio nodes (1e3 *. o.searched_decide_s), "1/ms");
    ("core.nodes_per_leaf", ratio nodes (fi o.leaves), "ratio");
    ("core.leaves_per_decision", ratio (fi o.leaves) (fi o.searched), "count");
    ( "core.iterations_per_decision",
      ratio (fi o.iterations) (fi o.searched),
      "count" );
    ("core.exhausted_frac", ratio (fi o.exhausted) (fi o.searched), "ratio");
    ( "core.improvements_per_leaf",
      ratio (fi o.improvements) (fi o.leaves),
      "ratio" );
    ( "core.winner_iter0_frac",
      ratio (fi o.winner_iter0) (fi o.searched),
      "ratio" );
    ("metrics.aggregate_s", traced.aggregate_s, "s");
    ("check.validate_s", validate_s, "s");
    ("check.violations", fi violations, "count");
    ("pool.jobs", fi (Experiments.Common.jobs ()), "count");
    ("process.cpu_per_wall", ratio u.cpu_s u.wall_s, "ratio");
    ("process.probe_us", 1e6 *. probe_nominal_s *. u.slowdown, "us");
    ( "trace.overhead_sim_jobs_per_s",
      ratio (ref_wall_s traced -. ref_wall_s u) (ref_wall_s traced),
      "ratio" );
    ( "trace.overhead_decision_ms_p50",
      ratio
        (ref_decision_ms 0.5 traced -. ref_decision_ms 0.5 u)
        (ref_decision_ms 0.5 u),
      "ratio" );
    ( "quality.avg_wait_h", Metrics.Aggregate.avg_wait_hours quality, "h");
    ( "quality.max_wait_h", Metrics.Aggregate.max_wait_hours quality, "h");
  ]

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
}

let run w ~seed ~seconds ~traced =
  let spans = Spans.create () in
  let root_start = now () in
  let seeds = List.init w.months (fun k -> seed + (k * month_stride)) in
  (* Generation time of each month set-up, wherever it happens, at the
     reference speed: the mean slowdown of probes just before and just
     after the set-up scales it. *)
  let setup_samples = ref [] in
  let timed_setup ?spans seed =
    let before = probe_slowdown 200 in
    let s = setup ?spans w ~seed in
    let slowdown = (before +. probe_slowdown 200) /. 2.0 in
    setup_samples :=
      ((s.generate_s +. s.scale_load_s) /. slowdown) :: !setup_samples;
    s
  in
  let simulate_month trace = simulate ~spans w trace ~traced:false in
  let measure_start = now () in
  (* The first pass yields the schedules the validator replays, the
     quality metrics and the reference every later repetition of the
     same month must reproduce.  Month 0 runs first, before the other
     months exist, so the heap figures are those of one month's set-up
     and simulation.  Each month is set up [w.setups] times; only the
     last is kept. *)
  let first_setup ?spans seed =
    for _ = 2 to w.setups do
      ignore (timed_setup seed : setup)
    done;
    timed_setup ?spans seed
  in
  let setup0 = first_setup ~spans (List.hd seeds) in
  let heap_after_setup = heap_mb () in
  let run0 = simulate_month setup0.trace in
  let peak_heap_mb = heap_mb () in
  (* live data with the month's trace and results still held; Gc.stat
     runs a full major collection first *)
  let live_heap_mb = words_mb (Gc.stat ()).live_words in
  let setups =
    setup0 :: List.map (fun seed -> first_setup ~spans seed) (List.tl seeds)
  in
  let traces = List.map (fun s -> s.trace) setups in
  let first_runs = run0 :: List.map simulate_month (List.tl traces) in
  (* Later passes set every month up again (timed into setup_s, so its
     samples spread over the whole run) and simulate the fresh trace,
     which must reproduce the first pass's schedule. *)
  let simulate_pass () =
    List.map
      (fun seed ->
        let r, _, _ = simulate_month (timed_setup seed).trace in
        r)
      seeds
  in
  let first = List.map (fun (r, _, _) -> r) first_runs in
  let validate_start = now () in
  let reports =
    List.map2
      (fun trace (_, outcomes, _) -> validate w trace outcomes)
      traces first_runs
  in
  let validate_s = now () -. validate_start in
  Spans.record spans ~name:"check.validate" ~parent:"schedbench"
    ~start_s:validate_start ~stop_s:(now ());
  (* the quality metrics cover the measured jobs of every month *)
  let quality =
    Metrics.Aggregate.compute
      (List.concat_map (fun (_, _, measured) -> measured) first_runs)
  in
  (* Further whole passes while one more fits in the time budget.  The
     traced run needs only the first. *)
  let pass_s = List.fold_left (fun acc r -> acc +. r.wall_s) 0.0 first in
  let rec more acc =
    if traced || now () -. measure_start +. pass_s > seconds then List.rev acc
    else more (simulate_pass () :: acc)
  in
  let passes = first :: more [] in
  let reps = List.concat passes in
  List.iteri
    (fun i r ->
      Printf.printf
        "rep %d: wall %.1f jobs/s, probe %.3f us; at reference speed %.1f \
         jobs/s, decision p50 %.5f ms, p99 %.5f ms\n"
        i (jobs_per_s r)
        (1e6 *. probe_nominal_s *. r.slowdown)
        (fi r.jobs /. ref_wall_s r)
        (ref_decision_ms 0.5 r) (ref_decision_ms 0.99 r))
    reps;
  (* A timing of the workload is taken at the reference speed and
     averaged over every month simulation of the run. *)
  let mean_over_reps f =
    List.fold_left (fun acc r -> acc +. f r) 0.0 reps /. fi (List.length reps)
  in
  let run_jobs_per_s =
    fi (List.fold_left (fun acc r -> acc + r.jobs) 0 reps)
    /. List.fold_left (fun acc r -> acc +. ref_wall_s r) 0.0 reps
  in
  Printf.printf "quality: avg wait %.4f h, max wait %.4f h, avg bsld %.4f\n"
    (Metrics.Aggregate.avg_wait_hours quality)
    (Metrics.Aggregate.max_wait_hours quality)
    quality.avg_bounded_slowdown;
  (* Month 0 is repeated outside the measured passes: traced, for the
     per-layer metrics, or untraced when the budget held a single pass,
     so that every run checks at least one repetition. *)
  let repeat0 =
    if traced then
      let r, _, _ = simulate ~spans w (List.hd traces) ~traced:true in
      Some r
    else if List.length passes = 1 then
      let r, _, _ = simulate_month (timed_setup (List.hd seeds)).trace in
      Some r
    else None
  in
  (* every repetition of a month must reproduce its first schedule *)
  let reference = List.map (fun r -> r.quality) first in
  let mismatched =
    List.fold_left
      (fun acc p ->
        List.fold_left2
          (fun acc r q -> if r.quality = q then acc else acc + 1)
          acc p reference)
      0 passes
    + (match repeat0 with
      | Some r when r.quality <> List.hd reference -> 1
      | _ -> 0)
  in
  let month_jobs = Workload.Trace.length (List.hd traces) in
  let attempted =
    List.fold_left (fun acc r -> acc + r.jobs) 0
      (reps @ Option.to_list repeat0)
  in
  let violations =
    List.fold_left
      (fun acc r -> acc + List.length r.Schedcheck.Report.violations)
      0 reports
  in
  let failed =
    min attempted
      (List.fold_left (fun acc r -> acc + failed_jobs r) 0 reports
      + (month_jobs * mismatched))
  in
  Spans.record spans ~name:"schedbench" ~parent:"" ~start_s:root_start
    ~stop_s:(now ());
  let metrics =
    match repeat0 with
    | Some traced_rep when traced ->
        per_layer ~setup0:(List.hd setups) ~heap_after_setup ~peak_heap_mb
          ~quality ~first ~traced:traced_rep ~violations ~validate_s spans
    | _ ->
        [
          ("setup_s", fi w.months *. median !setup_samples, "s");
          ("sim_jobs_per_s", run_jobs_per_s, "jobs/s");
          ("decision_ms_p50", mean_over_reps (ref_decision_ms 0.5), "ms");
          ("decision_ms_p99", mean_over_reps (ref_decision_ms 0.99), "ms");
          ("live_heap_mb", live_heap_mb, "MB");
          ("avg_bsld", quality.avg_bounded_slowdown, "ratio");
          ("valid_frac", 1.0 -. ratio (fi failed) (fi attempted), "jobs/jobs");
        ]
  in
  List.iter
    (fun r ->
      if not (Schedcheck.Report.ok r) then
        Format.eprintf "%a@." Schedcheck.Report.pp r)
    reports;
  if mismatched > 0 then
    Printf.eprintf "%d repetition(s) did not reproduce the first schedule\n"
      mismatched;
  ({ correct = failed = 0; attempted; failed; metrics }, spans, List.length passes)

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

(* JSON numbers: every digit, and never nan/inf. *)
let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result r =
  List.iter
    (fun (name, v, unit) -> Printf.printf "%-34s %16.6f %s\n" name v unit)
    r.metrics;
  let metrics =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
             (json_number v) unit)
         r.metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    r.correct r.attempted r.failed metrics

let () =
  let workload = ref "" in
  let seed = ref 42 in
  let seconds = ref 40.0 in
  let trace = ref 0 in
  let usage =
    "main.exe --workload (search-deepq|backfill-long) [--seed N] \
     [--seconds S] [--trace 0|1]"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S time budget (default 40)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run (default 0)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        prerr_endline usage;
        exit 2
  in
  (* The benchmark is one process and one simulation at a time: pin
     the shared domain pool to the machine's width (or REPRO_JOBS, if
     narrower) so a later in-decision parallel search gets every core
     and cannot oversubscribe them. *)
  let nproc = Domain.recommended_domain_count () in
  Experiments.Common.set_jobs
    (match Sys.getenv_opt "REPRO_JOBS" with
    | Some _ -> min nproc (Experiments.Common.jobs ())
    | None -> nproc);
  let traced = !trace = 1 in
  Printf.printf
    "schedbench %s: seed %d, %d month(s), %.0f s, trace %d, pool width %d\n%!"
    w.name !seed w.months !seconds !trace (Experiments.Common.jobs ());
  match run w ~seed:!seed ~seconds:!seconds ~traced with
  | exception e ->
      Printf.eprintf "schedbench %s: %s\n" w.name (Printexc.to_string e);
      exit 1
  | result, spans, passes ->
      if traced then begin
        if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
        let path =
          Filename.concat out_dir
            (Printf.sprintf "%s.seed%d.chrome.json" w.name !seed)
        in
        Spans.write_chrome spans ~path
          ~process:(Printf.sprintf "schedbench %s (wall clock)" w.name);
        Printf.printf "spans: %s\n" path
      end;
      Printf.printf "passes: %d\n" passes;
      print_result result;
      if not result.correct then exit 1
