(* Reproduction bench harness.

   Regenerates every table and figure of the paper (Sections 2-6), then
   the ablation studies.  Knobs (environment variables):

     REPRO_SCALE   workload scale (default 1.0 = full months)
     REPRO_MONTHS  comma-separated subset of month labels
     REPRO_SEED    generator seed (default 42)
     REPRO_MAXL    cap on the Figure 6 budget sweep
     REPRO_ONLY    comma-separated experiment ids to run
     REPRO_JOBS    domain-pool width for experiment execution
                   (default: recommended_domain_count - 1; also -j N)

   Validation (rides along with the tables):

     --validate           validate every schedule the experiments
                          simulate (Schedcheck: machine-level
                          invariants, differential EASY backfill
                          replay); print an aggregate summary and
                          exit 1 on any violation

   Tracing (rides along with the tables):

     --trace[=path]       record a per-decision event log for every
                          simulation the experiments run and write it
                          as JSONL (default bench.trace.jsonl), plus a
                          Chrome trace_event view (<base>.chrome.json,
                          simulated-time axis, deterministic) and the
                          domain-pool worker spans
                          (<base>.pool.json, wall-clock, NOT
                          deterministic)

   Run-health reports (rides along with the tables):

     --report[=dir]       sample a run-health series for every
                          simulation the experiments run and write
                          self-contained HTML report pages (one per
                          month/load/estimator cell, overlaying its
                          policies) plus a cross-policy index.html and
                          the raw series JSONL (run_series/1) into dir
                          (default bench-report); deterministic for
                          any REPRO_JOBS

   Progress (stderr only, outside the byte-identical stdout):

     --progress           print a [k/n] experiment heartbeat with
                          per-experiment wall time and an ETA; also on
                          by default when stderr is a TTY

   Perf regression modes (instead of the tables):

     --perf-json [path]   measure search throughput (nodes/ms) over a
                          grid of node budgets and queue depths, bechamel
                          micro-op costs, and the sequential vs
                          parallel harness wall-clock at the
                          REPRO_SCALE=0.1 quick config, and write
                          them as JSON (default
                          BENCH_search_hotpath.json)
     --perf-smoke path profile
                          re-measure the L=8000 / 30-job point and
                          fail (exit 1) if it regressed more than 30%
                          below the baseline JSON at path, or if the
                          parallel rendering of the smoke figure
                          differs byte-for-byte from the sequential
                          one.  profile names the dune profile this
                          binary was built with; the baseline is
                          recorded from release, so any other profile
                          is refused (exit 2) before measuring *)

open Bechamel
open Toolkit

let selected () =
  match Sys.getenv_opt "REPRO_ONLY" with
  | None | Some "" -> Experiments.Registry.all
  | Some csv ->
      String.split_on_char ',' csv
      |> List.map String.trim
      |> List.filter_map Experiments.Registry.find

(* One failing experiment must not kill the whole regeneration.  The
   exception text is deterministic, so guarded output stays
   byte-identical between sequential and parallel renders. *)
let run_guarded e fmt =
  try e.Experiments.Registry.run fmt
  with exn ->
    Format.fprintf fmt "@.[%s FAILED: %s]@." e.Experiments.Registry.id
      (Printexc.to_string exn)

(* Wall-clock heartbeat on stderr: on with --progress or when stderr
   is a TTY; never touches the byte-identical stdout stream. *)
let progress_flag = ref false

let progress_enabled () =
  !progress_flag || (try Unix.isatty Unix.stderr with Unix.Unix_error _ -> false)

let run_experiments fmt =
  Format.fprintf fmt
    "Search-based Job Scheduling for Parallel Computer Workloads@.";
  Format.fprintf fmt
    "Reproduction harness (Vasupongayya, Chiang & Massey, Cluster 2005)@.";
  Format.fprintf fmt "scale=%g seed=%d jobs=%d months=%s@."
    (Experiments.Common.scale ())
    (Experiments.Common.seed ())
    (Experiments.Common.jobs ())
    (String.concat ","
       (List.map
          (fun m -> m.Workload.Month_profile.label)
          (Experiments.Common.months ())));
  let exps = selected () in
  let n = List.length exps in
  let t_start = Simcore.Clock.monotonic_s () in
  List.iteri
    (fun i e ->
      if progress_enabled () then
        Printf.eprintf "[%d/%d] %s ...\n%!" (i + 1) n e.Experiments.Registry.id;
      let t0 = Simcore.Clock.monotonic_s () in
      run_guarded e fmt;
      let now = Simcore.Clock.monotonic_s () in
      Format.fprintf fmt "[%s done in %.1fs]@." e.Experiments.Registry.id
        (now -. t0);
      if progress_enabled () then
        Printf.eprintf "[%d/%d] %s done in %.1fs, ETA %.0fs\n%!" (i + 1) n
          e.Experiments.Registry.id (now -. t0)
          ((now -. t_start) /. float_of_int (i + 1) *. float_of_int (n - i - 1)))
    exps

(* ------------------------------------------------------------------ *)
(* Perf regression layer: BENCH_search_hotpath.json                    *)

let ols =
  Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]

(* Nanoseconds per run of [test], by OLS over bechamel samples. *)
let ols_ns test =
  let cfg =
    Benchmark.cfg ~limit:300 ~stabilize:true ~quota:(Time.second 0.5) ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] test in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let v = ref nan in
  Hashtbl.iter
    (fun _ r ->
      match Analyze.OLS.estimates r with Some (t :: _) -> v := t | _ -> ())
    results;
  !v

(* A ~90-segment profile, the shape the search sees mid-descent. *)
let micro_profile () =
  let p = Cluster.Profile.create ~now:0.0 ~capacity:128 in
  for i = 0 to 43 do
    let at = float_of_int (i * 600) in
    Cluster.Profile.reserve p ~at ~nodes:((i mod 3) + 1) ~duration:300.0
  done;
  p

let micro_place_undo =
  let p = micro_profile () in
  Test.make ~name:"place_earliest+undo"
    (Staged.stage (fun () ->
         let m = Cluster.Profile.mark p in
         ignore (Cluster.Profile.place_earliest p ~nodes:5 ~duration:7200.0);
         Cluster.Profile.undo_to p m))

let micro_reserve_undo =
  let p = micro_profile () in
  Test.make ~name:"reserve+undo"
    (Staged.stage (fun () ->
         let m = Cluster.Profile.mark p in
         Cluster.Profile.reserve p ~at:13000.0 ~nodes:5 ~duration:7200.0;
         Cluster.Profile.undo_to p m))

(* One run-health observation, steady state (the buffer stays at its
   capacity and halving amortizes away). *)
let micro_series_observe =
  let s = Sim.Series.create ~policy:"micro" () in
  let clock = ref 0.0 in
  Test.make ~name:"series_observe"
    (Staged.stage (fun () ->
         clock := !clock +. 30.0;
         Sim.Series.observe s
           {
             now = !clock;
             seen = 12;
             started = [];
             queue = 12;
             demand = 200;
             max_wait = 3600.0;
             busy = 64;
             running = 9;
             probe = None;
           }))

let perf_budgets = [ 1000; 8000; 100000 ]
let perf_queue_depths = [ 10; 30; 60 ]

let grid_key ~budget ~n = Printf.sprintf "trail_l%d_n%d" budget n

let smoke_key = grid_key ~budget:8000 ~n:30

let measure_grid ~repeats out =
  List.iter
    (fun budget ->
      List.iter
        (fun n ->
          let v =
            Experiments.Overhead.nodes_per_ms ~n_waiting:n ~repeats
              ~budget ()
          in
          out (grid_key ~budget ~n) v)
        perf_queue_depths)
    perf_budgets

(* ------------------------------------------------------------------ *)
(* Sequential vs parallel harness wall-clock                           *)

(* Pin the quick-loop config (CLAUDE.md) unless the caller chose one:
   the wallclock numbers in the JSON are comparable only at a fixed
   workload. *)
let quick_config () =
  Unix.putenv "REPRO_SCALE" "0.1";
  if Sys.getenv_opt "REPRO_MONTHS" = None then
    Unix.putenv "REPRO_MONTHS" "7/03,1/04";
  if Sys.getenv_opt "REPRO_MAXL" = None then Unix.putenv "REPRO_MAXL" "10000"

(* Render [ids] to a buffer with a cold cache at pool width [jobs],
   returning (rendered bytes, per-experiment seconds, total seconds). *)
let timed_render ~jobs ids =
  Experiments.Common.set_jobs jobs;
  Experiments.Common.reset_caches ();
  let buf = Buffer.create (1 lsl 16) in
  let fmt = Format.formatter_of_buffer buf in
  let t_all = Simcore.Clock.monotonic_s () in
  let per =
    List.map
      (fun e ->
        let t0 = Simcore.Clock.monotonic_s () in
        run_guarded e fmt;
        (e.Experiments.Registry.id, Simcore.Clock.monotonic_s () -. t0))
      ids
  in
  let total = Simcore.Clock.monotonic_s () -. t_all in
  Format.pp_print_flush fmt ();
  (Buffer.contents buf, per, total)

let wallclock_entries () =
  quick_config ();
  let ids = selected () in
  let par_jobs = max 2 (Experiments.Common.jobs ()) in
  let _, per_seq, seq_s = timed_render ~jobs:1 ids in
  let _, per_par, par_s = timed_render ~jobs:par_jobs ids in
  Printf.printf
    "harness wallclock at REPRO_SCALE=0.1: seq %.1fs, par %.1fs (-j %d), speedup %.2fx\n%!"
    seq_s par_s par_jobs (seq_s /. Float.max par_s 1e-9);
  [ ("bench_wallclock_seq_s", seq_s);
    ("bench_wallclock_par_s", par_s);
    ("par_jobs", float_of_int par_jobs);
    ("par_speedup", seq_s /. Float.max par_s 1e-9) ]
  @ List.map (fun (id, s) -> (Printf.sprintf "wall_%s_seq_s" id, s)) per_seq
  @ List.map (fun (id, s) -> (Printf.sprintf "wall_%s_par_s" id, s)) per_par

(* Decision-level telemetry aggregates: one traced + series-sampled run
   of the headline policy on the first quick-config month.  Guards the
   probe and sampler plumbing itself — a silent regression in either
   would zero these fields. *)
let telemetry_entries () =
  Experiments.Common.set_tracing true;
  Experiments.Common.set_series true;
  Experiments.Common.reset_caches ();
  let month = List.hd (Experiments.Common.months ()) in
  let _ : Sim.Run.t =
    Experiments.Common.simulate
      ~policy:(Experiments.Common.dds_lxf_dynb ~budget:1000)
      ~r_star:Sim.Engine.Actual month Experiments.Common.Original
  in
  Experiments.Common.set_tracing false;
  Experiments.Common.set_series false;
  let series_entries =
    match Experiments.Common.series_runs () with
    | [] -> []
    | (_, s) :: _ ->
        [ ("series_observed", float_of_int (Sim.Series.observed s));
          ("series_samples", float_of_int (Sim.Series.length s));
          ("series_stride", float_of_int (Sim.Series.stride s));
          ("series_excess_total_s", Sim.Series.cumulative_excess s) ]
  in
  series_entries
  @
  match Experiments.Common.traced_runs () with
  | [] -> []
  | (_, log) :: _ ->
      let searched =
        List.filter
          (fun d -> d.Sim.Decision_log.budget > 0)
          (Sim.Decision_log.decisions log)
      in
      let field f = Array.of_list (List.map f searched) in
      let nodes = field (fun d -> float_of_int d.Sim.Decision_log.nodes) in
      let improvements =
        field (fun d -> float_of_int d.Sim.Decision_log.improvements)
      in
      let pct a p =
        if Array.length a = 0 then 0.0 else Simcore.Stats.percentile a p
      in
      [ ("telemetry_decisions", float_of_int (List.length searched));
        ("telemetry_nodes_p50", pct nodes 50.0);
        ("telemetry_nodes_p99", pct nodes 99.0);
        ("telemetry_improvements_per_decision",
         Simcore.Stats.mean improvements) ]

let perf_json path =
  (* warm up code paths and the branch predictor before measuring *)
  ignore (Experiments.Overhead.nodes_per_ms ~repeats:5 ~budget:8000 ());
  let entries = ref [] in
  let out key v = entries := (key, v) :: !entries in
  measure_grid ~repeats:20 out;
  let micro =
    [ ("micro_place_earliest_undo_ns", ols_ns micro_place_undo);
      ("micro_reserve_undo_ns", ols_ns micro_reserve_undo);
      ("micro_series_observe_ns", ols_ns micro_series_observe) ]
  in
  let wall = wallclock_entries () in
  let telemetry = telemetry_entries () in
  let fields =
    List.map (fun (k, v) -> (k, Printf.sprintf "%.1f" v)) (List.rev !entries)
    @ List.map (fun (k, v) -> (k, Printf.sprintf "%.1f" v)) micro
    @ List.map (fun (k, v) -> (k, Printf.sprintf "%.3f" v)) wall
    @ List.map (fun (k, v) -> (k, Printf.sprintf "%.2f" v)) telemetry
  in
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"schema\": \"search_hotpath/4\",\n";
  Printf.fprintf oc
    "  \"unit\": \"nodes_per_ms (grid), ns (micro), s (wall), counts \
     (telemetry, series)\",\n";
  Printf.fprintf oc "  \"bench\": \"DDS/lxf on the synthetic 128-node decision point\",\n";
  let rec emit = function
    | [] -> ()
    | [ (k, v) ] -> Printf.fprintf oc "  \"%s\": %s\n" k v
    | (k, v) :: rest ->
        Printf.fprintf oc "  \"%s\": %s,\n" k v;
        emit rest
  in
  emit fields;
  Printf.fprintf oc "}\n";
  close_out oc;
  Printf.printf "wrote %s (%s = %.0f nodes/ms)\n" path smoke_key
    (List.assoc smoke_key !entries)

(* Minimal scan for ["key": <number>] in the baseline file — the
   harness has no JSON dependency and the file is ours. *)
let baseline_value path key =
  let ic =
    try open_in path
    with Sys_error msg ->
      Printf.eprintf "perf-smoke: cannot read baseline: %s\n" msg;
      exit 2
  in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  let pat = Printf.sprintf "\"%s\":" key in
  let n = String.length s and m = String.length pat in
  let rec find i =
    if i + m > n then None
    else if String.sub s i m = pat then Some (i + m)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i ->
      let is_num c =
        (c >= '0' && c <= '9')
        || c = '.' || c = '-' || c = '+' || c = 'e' || c = 'E'
      in
      let start = ref i in
      while !start < n && s.[!start] = ' ' do incr start done;
      let stop = ref !start in
      while !stop < n && is_num s.[!stop] do incr stop done;
      if !stop = !start then None
      else float_of_string_opt (String.sub s !start (!stop - !start))

(* Render fig3 (the smoke figure) sequentially and through a >= 2-wide
   pool; any byte difference means the parallel execution layer leaked
   into the results. *)
let parallel_determinism_smoke () =
  if Sys.getenv_opt "REPRO_MONTHS" = None then Unix.putenv "REPRO_MONTHS" "7/03";
  let fig3 =
    match Experiments.Registry.find "fig3" with
    | Some e -> e
    | None -> assert false
  in
  let seq, _, _ = timed_render ~jobs:1 [ fig3 ] in
  let par, _, _ =
    timed_render ~jobs:(max 2 (Simcore.Pool.default_jobs ())) [ fig3 ]
  in
  if String.equal seq par then
    Printf.printf "perf-smoke: parallel rendering of fig3 is byte-identical\n"
  else begin
    Printf.eprintf
      "perf-smoke: FAIL — parallel fig3 rendering differs from sequential\n";
    exit 1
  end

let perf_smoke path ~profile =
  if profile <> "release" then begin
    Printf.eprintf
      "perf-smoke: main.exe was built in the %s profile, but the baseline \
       is recorded from release; run dune build --profile release \
       @perf-smoke\n"
      profile;
    exit 2
  end;
  match baseline_value path smoke_key with
  | None ->
      Printf.eprintf "perf-smoke: no %s in %s\n" smoke_key path;
      exit 2
  | Some baseline ->
      ignore (Experiments.Overhead.nodes_per_ms ~repeats:5 ~budget:8000 ());
      let current =
        Experiments.Overhead.nodes_per_ms ~repeats:10 ~budget:8000 ()
      in
      let floor = 0.7 *. baseline in
      Printf.printf "perf-smoke: %s = %.0f nodes/ms (baseline %.0f, floor %.0f)\n"
        smoke_key current baseline floor;
      if current < floor then begin
        Printf.eprintf
          "perf-smoke: FAIL — search hot path regressed more than 30%%\n";
        exit 1
      end;
      parallel_determinism_smoke ();
      Printf.printf "perf-smoke: OK\n"

(* Consume "-j N" / "--jobs N" / "--trace[=path]" / "--report[=dir]" /
   "--validate" / "--progress" anywhere on the command line; the rest
   is matched positionally below. *)
let trace_path = ref None
let report_dir = ref None
let validate_flag = ref false

let prescan_jobs argv =
  let rec go acc = function
    | [] -> List.rev acc
    | ("-j" | "--jobs") :: v :: rest -> (
        match int_of_string_opt v with
        | Some j when j >= 1 ->
            Experiments.Common.set_jobs j;
            go acc rest
        | _ ->
            Printf.eprintf "invalid -j value %S (want an int >= 1)\n" v;
            exit 2)
    | ("-j" | "--jobs") :: [] ->
        prerr_endline "-j needs a value";
        exit 2
    | "--trace" :: rest ->
        trace_path := Some "bench.trace.jsonl";
        go acc rest
    | a :: rest when String.length a > 8 && String.sub a 0 8 = "--trace=" ->
        trace_path := Some (String.sub a 8 (String.length a - 8));
        go acc rest
    | "--report" :: rest ->
        report_dir := Some "bench-report";
        go acc rest
    | a :: rest when String.length a > 9 && String.sub a 0 9 = "--report=" ->
        report_dir := Some (String.sub a 9 (String.length a - 9));
        go acc rest
    | "--validate" :: rest ->
        validate_flag := true;
        go acc rest
    | "--progress" :: rest ->
        progress_flag := true;
        go acc rest
    | a :: rest -> go (a :: acc) rest
  in
  Array.of_list (go [] (Array.to_list argv))

(* Write the three trace artifacts next to [path]: the decision JSONL
   and its Chrome view (simulated time, byte-identical for any
   REPRO_JOBS) plus the pool worker spans (wall-clock, for eyeballing
   parallel efficiency only). *)
let write_traces path =
  let base =
    match Filename.chop_suffix_opt ~suffix:".jsonl" path with
    | Some b -> b
    | None -> path
  in
  let oc = open_out path in
  let ofmt = Format.formatter_of_out_channel oc in
  Experiments.Common.pp_traces ofmt;
  Format.pp_print_flush ofmt ();
  close_out oc;
  let chrome_path = base ^ ".chrome.json" in
  let oc = open_out chrome_path in
  output_string oc (Experiments.Common.chrome_trace_document ());
  close_out oc;
  let pool_path = base ^ ".pool.json" in
  let oc = open_out pool_path in
  let spans = Simcore.Pool.spans (Experiments.Common.pool ()) in
  let t0 =
    List.fold_left
      (fun acc s -> Float.min acc s.Simcore.Pool.Span.posted_s)
      infinity spans
  in
  output_string oc
    (Sim.Decision_log.chrome_document
       ("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{\"name\":\"domain pool (wall clock)\"}}"
       :: List.map
            (fun s ->
              Printf.sprintf
                "{\"name\":\"task\",\"cat\":\"pool\",\"ph\":\"X\",\"pid\":0,\
                 \"tid\":%d,\"ts\":%.0f,\"dur\":%.0f,\"args\":{\"batch\":%d,\
                 \"task\":%d,\"wait_ms\":%.3f}}"
                s.Simcore.Pool.Span.domain
                ((s.Simcore.Pool.Span.start_s -. t0) *. 1e6)
                (Simcore.Pool.Span.busy_s s *. 1e6)
                s.Simcore.Pool.Span.batch s.Simcore.Pool.Span.task
                (Simcore.Pool.Span.wait_s s *. 1e3))
            spans));
  close_out oc;
  let traced = List.length (Experiments.Common.traced_runs ()) in
  Printf.printf "wrote %s (%d traced runs), %s, %s (%d pool spans)\n" path
    traced chrome_path pool_path (List.length spans)

(* Run-health report pages: one per month/load/estimator cell, its
   policies overlaid, plus a cross-policy index and the raw series
   JSONL.  Everything here renders from the warm run cache, so the
   files are byte-identical for any REPRO_JOBS. *)
let write_reports dir =
  let runs = Experiments.Common.series_runs () in
  (* Cache keys are month/load/estimator/policy with the month label
     itself containing one '/' (e.g. 7/03): the cell is the first four
     segments, the policy spec the rest. *)
  let split key =
    match String.split_on_char '/' key with
    | m1 :: m2 :: load :: rstar :: (_ :: _ as policy) ->
        (String.concat "/" [ m1; m2; load; rstar ], String.concat "/" policy)
    | _ -> (key, key)
  in
  let sanitize s =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '.' -> c
        | _ -> '_')
      s
  in
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (key, s) ->
      let cell, label = split key in
      match Hashtbl.find_opt tbl cell with
      | None ->
          order := cell :: !order;
          Hashtbl.replace tbl cell [ (label, s) ]
      | Some rs -> Hashtbl.replace tbl cell ((label, s) :: rs))
    runs;
  let sections =
    List.rev_map
      (fun cell ->
        {
          Sim.Report.href = sanitize cell ^ ".html";
          title = cell;
          runs = List.rev (Hashtbl.find tbl cell);
        })
      !order
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let write path content =
    let oc = open_out path in
    output_string oc content;
    close_out oc
  in
  List.iter
    (fun s ->
      write
        (Filename.concat dir s.Sim.Report.href)
        (Sim.Report.page
           ~title:("Run health: " ^ s.Sim.Report.title)
           ~subtitle:"month / load / estimator cell, one run per policy"
           s.Sim.Report.runs))
    sections;
  write
    (Filename.concat dir "index.html")
    (Sim.Report.index ~title:"Run-health reports" sections);
  let oc = open_out (Filename.concat dir "series.jsonl") in
  let ofmt = Format.formatter_of_out_channel oc in
  Experiments.Common.pp_series ofmt;
  Format.pp_print_flush ofmt ();
  close_out oc;
  Printf.printf
    "wrote %d report pages, index.html and series.jsonl (%d runs) to %s\n"
    (List.length sections) (List.length runs) dir

(* Aggregate the validation reports of every cached run; non-zero exit
   on any violation so @check-smoke can gate on it. *)
let report_validation fmt =
  let reports = Experiments.Common.validation_reports () in
  let bad =
    List.filter
      (fun (_, r) -> not (Schedcheck.Report.ok r))
      reports
  in
  Format.fprintf fmt "@.validation: %d runs checked, %d with violations@."
    (List.length reports) (List.length bad);
  List.iter
    (fun (key, r) -> Format.fprintf fmt "%s -> %a@." key Schedcheck.Report.pp r)
    bad;
  if bad <> [] then begin
    Format.pp_print_flush fmt ();
    exit 1
  end

let () =
  let fmt = Format.std_formatter in
  let argv = prescan_jobs Sys.argv in
  (match !trace_path with
  | None -> ()
  | Some _ ->
      Experiments.Common.set_tracing true;
      Simcore.Pool.set_tracing (Experiments.Common.pool ()) true);
  if !report_dir <> None then Experiments.Common.set_series true;
  if !validate_flag then Experiments.Common.set_validation true;
  (match argv with
  | [| _ |] ->
      let t0 = Simcore.Clock.monotonic_s () in
      run_experiments fmt;
      Format.fprintf fmt "@.total bench time: %.1fs@."
        (Simcore.Clock.monotonic_s () -. t0);
      Option.iter write_traces !trace_path;
      Option.iter write_reports !report_dir;
      (* Summary on stderr so @check-smoke can silence the tables and
         still show it. *)
      if !validate_flag then report_validation Format.err_formatter
  | [| _; "--perf-json" |] -> perf_json "BENCH_search_hotpath.json"
  | [| _; "--perf-json"; path |] -> perf_json path
  | [| _; "--perf-smoke"; path; profile |] -> perf_smoke path ~profile
  | _ ->
      prerr_endline
        "usage: main.exe [-j N] [--trace[=path]] [--report[=dir]] \
         [--validate] [--progress] [--perf-json [path] | --perf-smoke \
         path profile]";
      exit 2);
  Experiments.Common.shutdown_pool ()
