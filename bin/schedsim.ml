(* schedsim: command-line front end for the search-based scheduling
   library.

     schedsim months                         list calibrated months
     schedsim generate -m 7/03 -o t.swf      write a synthetic trace
     schedsim mix -m 7/03 | --swf t.swf      job-mix report
     schedsim simulate -m 7/03 -p dds/lxf/dynb [--rho 0.9] ...
     schedsim trace -m 7/03 -p dds/lxf/dynb -o out.jsonl
                                             per-decision JSONL + Chrome trace
     schedsim report -m 7/03 -p dds/lxf/dynb -o report.html
                                             HTML run-health report + series
     schedsim validate -m 7/03 -p fcfs-bf    replay + invariant check
     schedsim experiment fig4 ...            run reproduction experiments *)

open Cmdliner

let fmt = Format.std_formatter

(* --- shared argument parsers --- *)

let month_conv =
  let parse s =
    match Workload.Month_profile.find s with
    | m -> Ok m
    | exception Not_found ->
        Error
          (`Msg
             (Printf.sprintf "unknown month %S (try: %s)" s
                (String.concat ", "
                   (Array.to_list
                      (Array.map
                         (fun m -> m.Workload.Month_profile.label)
                         Workload.Month_profile.all)))))
  in
  let print fmt m = Format.fprintf fmt "%s" m.Workload.Month_profile.label in
  Arg.conv (parse, print)

let month_opt =
  Arg.(value & opt (some month_conv) None
       & info [ "m"; "month" ] ~docv:"MONTH" ~doc:"Calibrated month label, e.g. 7/03.")

let swf_opt =
  Arg.(value & opt (some file) None
       & info [ "swf" ] ~docv:"FILE" ~doc:"Read the workload from an SWF trace file.")

let scale_opt =
  Arg.(value & opt float 1.0
       & info [ "scale" ] ~docv:"S"
           ~doc:"Scale job count and time axis together (load preserved).")

let seed_opt =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Generator seed.")

let rho_opt =
  Arg.(value & opt (some float) None
       & info [ "rho" ] ~docv:"R"
           ~doc:"Compress inter-arrival times to reach this offered load (e.g. 0.9).")

let budget_opt =
  Arg.(value & opt int 1000
       & info [ "L"; "budget" ] ~docv:"N"
           ~doc:"Node budget per scheduling decision for search policies.")

let rstar_opt =
  let rstar_conv =
    Arg.enum
      [ ("T", Sim.Engine.Actual); ("R", Sim.Engine.Requested);
        ("pred", Sim.Engine.Predicted) ]
  in
  Arg.(value & opt rstar_conv Sim.Engine.Actual
       & info [ "rstar" ] ~docv:"T|R|pred"
           ~doc:"Runtime known to the scheduler: T (actual), R (requested), or pred (on-line corrected estimate).")

let policy_opt =
  Arg.(value & opt string "dds/lxf/dynb"
       & info [ "p"; "policy" ] ~docv:"SPEC"
           ~doc:(Printf.sprintf "Scheduling policy. Examples: %s."
                   (String.concat ", " Experiments.Policy_spec.known)))

let load_trace ~month ~swf ~scale ~seed ~rho =
  let base =
    match (month, swf) with
    | Some profile, None ->
        let config =
          { Workload.Generator.default_config with scale; seed }
        in
        Ok (Workload.Generator.month ~config profile)
    | None, Some path -> (
        match Workload.Swf.of_file path with
        | Ok r -> Ok r.Workload.Swf.trace
        | Error e -> Error (Printf.sprintf "cannot parse %s: %s" path e))
    | _ -> Error "exactly one of --month or --swf is required"
  in
  Result.map
    (fun trace ->
      match rho with
      | None -> trace
      | Some target ->
          Workload.Trace.scale_load trace
            ~capacity:Workload.Month_profile.capacity ~target)
    base

(* The commands that simulate one policy share one prologue: the
   workload and policy arguments become [setup], which loads the trace
   and parses the policy when called — or prints an [error:] line and
   exits 1.  Calling it from the command body keeps every argument
   parsed first. *)
let setup_term =
  let setup month swf scale seed rho spec budget rstar () =
    let result =
      let ( let* ) = Result.bind in
      let* trace = load_trace ~month ~swf ~scale ~seed ~rho in
      let* policy = Experiments.Policy_spec.parse ~budget spec in
      Ok (trace, policy)
    in
    match result with
    | Error e ->
        Format.eprintf "error: %s@." e;
        exit 1
    | Ok (trace, policy) -> (trace, policy, rstar)
  in
  Term.(const setup $ month_opt $ swf_opt $ scale_opt $ seed_opt $ rho_opt
        $ policy_opt $ budget_opt $ rstar_opt)

(* --- months --- *)

let months_cmd =
  let run () =
    Array.iter
      (fun m -> Format.fprintf fmt "%a@." Workload.Month_profile.pp m)
      Workload.Month_profile.all
  in
  Cmd.v (Cmd.info "months" ~doc:"List the calibrated NCSA IA-64 months.")
    Term.(const run $ const ())

(* --- generate --- *)

let generate_cmd =
  let output =
    Arg.(value & opt string "trace.swf"
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output SWF path.")
  in
  let run month scale seed rho output =
    match load_trace ~month ~swf:None ~scale ~seed ~rho with
    | Error e ->
        Format.eprintf "error: %s@." e;
        exit 1
    | Ok trace ->
        Workload.Swf.to_file output trace
          ~comments:[ "; generated by schedsim" ];
        Format.fprintf fmt "wrote %s: %s@." output
          (Workload.Trace.concat_stats trace)
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a calibrated synthetic month as SWF.")
    Term.(const run $ month_opt $ scale_opt $ seed_opt $ rho_opt $ output)

(* --- mix --- *)

let mix_cmd =
  let run month swf scale seed =
    match load_trace ~month ~swf ~scale ~seed ~rho:None with
    | Error e ->
        Format.eprintf "error: %s@." e;
        exit 1
    | Ok trace ->
        let mix =
          Workload.Mix_report.of_trace
            ~capacity:Workload.Month_profile.capacity trace
        in
        Format.fprintf fmt "%a@.%a@.@.%a"
          (fun f -> Workload.Mix_report.pp_table3_row f ~label:"mix")
          mix
          (fun f -> Workload.Mix_report.pp_table4_row f ~label:"mix")
          mix Workload.Arrival_stats.pp
          (Workload.Arrival_stats.of_trace trace)
  in
  Cmd.v (Cmd.info "mix" ~doc:"Print the Table 3/4-style job-mix report.")
    Term.(const run $ month_opt $ swf_opt $ scale_opt $ seed_opt)

(* --- simulate --- *)

let simulate_cmd =
  let export_opt =
    Arg.(value & opt (some string) None
         & info [ "export" ] ~docv:"FILE"
             ~doc:"Write per-job outcomes of the measured window to a CSV file.")
  in
  let run setup export =
    let trace, policy, rstar = setup () in
    let run = Sim.Run.simulate ~r_star:rstar ~policy trace in
    Format.fprintf fmt "policy:    %s@." run.Sim.Run.policy_name;
    Format.fprintf fmt "workload:  %s@." (Workload.Trace.concat_stats trace);
    Format.fprintf fmt "measures:  %a@." Metrics.Aggregate.pp
      run.Sim.Run.aggregate;
    Format.fprintf fmt "decisions: %d (%.2fs wall clock)@."
      run.Sim.Run.decisions run.Sim.Run.wall_clock;
    Format.fprintf fmt "utilization: %.1f%% of node-time in window@."
      (100.0 *. run.Sim.Run.utilization);
    Format.fprintf fmt "@.per-class average wait (hours):@.%a"
      Metrics.Class_matrix.pp run.Sim.Run.class_matrix;
    match export with
    | None -> ()
    | Some path ->
        Metrics.Export.to_csv path run.Sim.Run.measured;
        Format.fprintf fmt "@.wrote %d outcome rows to %s@."
          (List.length run.Sim.Run.measured)
          path
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Simulate one policy over a month or SWF trace and report measures.")
    Term.(const run $ setup_term $ export_opt)

(* --- trace --- *)

let trace_cmd =
  let output =
    Arg.(value & opt string "out.trace.jsonl"
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Output JSONL path (schema decision_trace/1, one JSON \
                   object per scheduling decision).")
  in
  let chrome =
    Arg.(value & opt (some string) None
         & info [ "chrome" ] ~docv:"FILE"
             ~doc:"Chrome trace_event output path (default: derived from \
                   the JSONL path; open in chrome://tracing or \
                   ui.perfetto.dev).")
  in
  let run setup output chrome =
    let trace, policy, rstar = setup () in
    let log = Sim.Decision_log.create ~policy:policy.Sched.Policy.name () in
    let run =
      Sim.Run.simulate ~observe:(Sim.Decision_log.observe log) ~r_star:rstar
        ~policy trace
    in
    let oc = open_out output in
    let ofmt = Format.formatter_of_out_channel oc in
    Sim.Decision_log.pp_jsonl ofmt log;
    Format.pp_print_flush ofmt ();
    close_out oc;
    let chrome_path =
      match chrome with
      | Some p -> p
      | None ->
          (match Filename.chop_suffix_opt ~suffix:".jsonl" output with
          | Some base -> base
          | None -> output)
          ^ ".chrome.json"
    in
    let oc = open_out chrome_path in
    output_string oc
      (Sim.Decision_log.chrome_document
         (Sim.Decision_log.chrome_events log));
    close_out oc;
    let searched =
      List.filter
        (fun d ->
          d.Sim.Decision_log.searched && d.Sim.Decision_log.budget > 0)
        (Sim.Decision_log.decisions log)
    in
    Format.fprintf fmt "policy:    %s@." run.Sim.Run.policy_name;
    Format.fprintf fmt "decisions: %d recorded, %d dropped@."
      (Sim.Decision_log.recorded log)
      (Sim.Decision_log.dropped log);
    (match
       Array.of_list
         (List.map
            (fun d -> float_of_int d.Sim.Decision_log.nodes)
            searched)
     with
    | [||] -> ()
    | nodes ->
        Format.fprintf fmt
          "search:    nodes/decision p50 %.0f, p99 %.0f, max %.0f@."
          (Simcore.Stats.percentile nodes 50.0)
          (Simcore.Stats.percentile nodes 99.0)
          (Simcore.Stats.max nodes));
    Format.fprintf fmt "wrote %s and %s@." output chrome_path
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Simulate one policy and export the per-decision event log \
             (decision time, queue length, search effort, jobs started) as \
             JSONL plus a Chrome trace_event view on the simulated-time \
             axis.  Output is deterministic: byte-identical for any \
             REPRO_JOBS setting.")
    Term.(const run $ setup_term $ output $ chrome)

(* --- report --- *)

let report_cmd =
  let output =
    Arg.(value & opt string "report.html"
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Output HTML path.  The run-health series (JSONL, schema \
                   run_series/1) and the OpenMetrics exposition are written \
                   next to it ($(i,FILE) with .series.jsonl / .om \
                   extensions).")
  in
  let threshold =
    Arg.(value & opt float 0.0
         & info [ "threshold" ] ~docv:"SECONDS"
             ~doc:"Per-job wait beyond which wait counts as excessive in \
                   the cumulative excess signal (default 0: all wait \
                   accumulates).")
  in
  let run setup output threshold =
    let trace, policy, rstar = setup () in
    let series =
      Sim.Series.create ~threshold ~policy:policy.Sched.Policy.name ()
    in
    let metrics = Simcore.Metrics.create () in
    let record = Sim.Run_metrics.observer metrics policy in
    let observe d =
      Sim.Series.observe series d;
      record d
    in
    let run = Sim.Run.simulate ~observe ~r_star:rstar ~policy trace in
    let base =
      match Filename.chop_suffix_opt ~suffix:".html" output with
      | Some base -> base
      | None -> output
    in
    let label = run.Sim.Run.policy_name in
    let write path content =
      let oc = open_out path in
      output_string oc content;
      close_out oc
    in
    write output
      (Sim.Report.page
         ~title:(Printf.sprintf "Run health: %s" label)
         ~subtitle:
           (Printf.sprintf "%s, %s"
              (Workload.Trace.concat_stats trace)
              (Sim.Engine.r_star_name rstar))
         [ (label, series) ]);
    let jsonl_path = base ^ ".series.jsonl" in
    let buf = Buffer.create (1 lsl 14) in
    let bfmt = Format.formatter_of_buffer buf in
    Sim.Series.pp_jsonl bfmt series;
    Format.pp_print_flush bfmt ();
    write jsonl_path (Buffer.contents buf);
    let om_path = base ^ ".om" in
    Buffer.clear buf;
    Simcore.Metrics.pp_openmetrics bfmt metrics;
    Format.pp_print_flush bfmt ();
    write om_path (Buffer.contents buf);
    Format.fprintf fmt "policy:    %s@." label;
    Format.fprintf fmt "series:    %d observations, %d samples (stride %d)@."
      (Sim.Series.observed series)
      (Sim.Series.length series)
      (Sim.Series.stride series);
    List.iter
      (fun r ->
        Format.fprintf fmt "%-14s last %.1f, avg %.1f, range [%.1f, %.1f]@."
          r.Sim.Series.label r.Sim.Series.last r.Sim.Series.avg
          r.Sim.Series.lo r.Sim.Series.hi)
      (Sim.Series.summary series);
    Format.fprintf fmt "wrote %s, %s and %s@." output jsonl_path om_path
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Simulate one policy and render a self-contained HTML run-health \
             report (busy nodes, queue, backlog, running jobs, waits and \
             cumulative excess over simulated time; inline SVG, no \
             JavaScript), plus the raw series as JSONL (run_series/1) and an \
             OpenMetrics text exposition of the engine and search \
             instruments.  Output is deterministic: byte-identical for any \
             REPRO_JOBS setting.")
    Term.(const run $ setup_term $ output $ threshold)

(* --- gantt --- *)

let gantt_cmd =
  let run setup =
    let trace, policy, rstar = setup () in
    if Workload.Trace.length trace > 300 then
      Format.eprintf
        "note: %d jobs; only the first 40 rows are drawn — consider --scale@."
        (Workload.Trace.length trace);
    let result = Sim.Engine.run ~r_star:rstar ~policy trace in
    Format.fprintf fmt "=== %s ===@." policy.Sched.Policy.name;
    Sim.Gantt.jobs_chart fmt result.Sim.Engine.outcomes;
    Sim.Gantt.utilization_chart fmt
      ~capacity:Workload.Month_profile.capacity
      result.Sim.Engine.outcomes
  in
  Cmd.v
    (Cmd.info "gantt"
       ~doc:"Render a policy's schedule as an ASCII timeline (small traces).")
    Term.(const run $ setup_term)

(* --- validate --- *)

let validate_cmd =
  let run setup =
    let trace, policy, rstar = setup () in
    let expect =
      Schedcheck.Validator.expectation_of_policy policy.Sched.Policy.name
    in
    let run = Sim.Run.simulate ~validate:expect ~r_star:rstar ~policy trace in
    let report = Option.get run.Sim.Run.validation in
    Format.fprintf fmt "%a@." Schedcheck.Report.pp report;
    if not (Schedcheck.Report.ok report) then exit 1
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Simulate one policy, then replay its schedule against the \
             machine-level invariants (capacity, non-preemption, \
             start-after-submit, decision-point alignment) — and, for the \
             EASY backfill family, against a differential replay of the \
             reference backfill plan.  Exits non-zero on any violation.")
    Term.(const run $ setup_term)

(* --- experiment --- *)

let experiment_cmd =
  let ids =
    Arg.(value & pos_all string []
         & info [] ~docv:"ID"
             ~doc:"Experiment ids (default: all). See `schedsim experiment list'.")
  in
  let jobs_opt =
    Arg.(value & opt (some int) None
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Domain-pool width for experiment execution (default: \
                   $(b,REPRO_JOBS) or recommended_domain_count - 1; 1 = \
                   sequential).")
  in
  let run jobs ids =
    Option.iter Experiments.Common.set_jobs jobs;
    match ids with
    | [ "list" ] ->
        List.iter
          (fun e ->
            Format.fprintf fmt "%-22s %s@." e.Experiments.Registry.id
              e.Experiments.Registry.title)
          Experiments.Registry.all
    | [] ->
        List.iter (fun e -> e.Experiments.Registry.run fmt)
          Experiments.Registry.all
    | ids ->
        List.iter
          (fun id ->
            match Experiments.Registry.find id with
            | Some e -> e.Experiments.Registry.run fmt
            | None ->
                Format.eprintf "unknown experiment %S (try: experiment list)@."
                  id;
                exit 1)
          ids
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Run paper-reproduction experiments (respects REPRO_* env vars, \
             including REPRO_JOBS).")
    Term.(const run $ jobs_opt $ ids)

let () =
  let doc = "search-based job scheduling for parallel computer workloads" in
  let info = Cmd.info "schedsim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ months_cmd; generate_cmd; mix_cmd; simulate_cmd; trace_cmd;
            report_cmd; gantt_cmd; validate_cmd; experiment_cmd ]))
