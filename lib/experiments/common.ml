type load = Original | Rho of float

let load_label = function
  | Original -> "original"
  | Rho r -> Printf.sprintf "rho=%.2f" r

let env_float name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some s -> (
      match float_of_string_opt s with
      | Some f when f > 0.0 -> f
      | _ -> default)

let env_int name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some s -> Option.value (int_of_string_opt s) ~default

(* Env knobs are read once and cached, but the cache is resettable so
   harnesses (perf-json, determinism tests) can re-point REPRO_* and
   rerun in-process.  Concurrent first reads race benignly: both
   domains compute the same value from the same environment. *)
let cached_env read =
  let cell = ref None in
  let get () =
    match !cell with
    | Some v -> v
    | None ->
        let v = read () in
        cell := Some v;
        v
  in
  let reset () = cell := None in
  (get, reset)

let scale, reset_scale = cached_env (fun () -> env_float "REPRO_SCALE" 1.0)
let seed, reset_seed = cached_env (fun () -> env_int "REPRO_SEED" 42)

let months, reset_months =
  cached_env (fun () ->
      match Sys.getenv_opt "REPRO_MONTHS" with
      | None | Some "" -> Array.to_list Workload.Month_profile.all
      | Some csv ->
          String.split_on_char ',' csv
          |> List.map String.trim
          |> List.filter (fun s -> s <> "")
          |> List.map Workload.Month_profile.find)

(* ------------------------------------------------------------------ *)
(* Parallel execution: one process-wide domain pool                    *)

let jobs_cell = ref None

let jobs () =
  match !jobs_cell with
  | Some j -> j
  | None ->
      let j =
        match Sys.getenv_opt "REPRO_JOBS" with
        | Some s -> (
            match int_of_string_opt s with
            | Some v when v >= 1 -> v
            | _ -> Simcore.Pool.default_jobs ())
        | None -> Simcore.Pool.default_jobs ()
      in
      jobs_cell := Some j;
      j

let pool_cell = ref None

let shutdown_pool () =
  match !pool_cell with
  | None -> ()
  | Some p ->
      pool_cell := None;
      Simcore.Pool.shutdown p

let set_jobs j =
  let j = max 1 j in
  if !jobs_cell <> Some j then begin
    shutdown_pool ();
    jobs_cell := Some j
  end

let pool () =
  match !pool_cell with
  | Some p -> p
  | None ->
      let p = Simcore.Pool.create ~jobs:(jobs ()) in
      pool_cell := Some p;
      p

let par_map f xs = Simcore.Pool.map (pool ()) ~f xs
let prefetch thunks = Simcore.Pool.iter (pool ()) ~f:(fun f -> f ()) thunks

(* ------------------------------------------------------------------ *)
(* Compute-once trace / run caches                                     *)

let trace_cache : (string, Workload.Trace.t) Simcore.Memo.t =
  Simcore.Memo.create ~size:32 ()

type scenario = { key : string; build : unit -> Workload.Trace.t }

let scenario_trace s = Simcore.Memo.get trace_cache s.key s.build

let month_trace ~seed profile load =
  let base =
    let config =
      { Workload.Generator.default_config with scale = scale (); seed }
    in
    Workload.Generator.month ~config profile
  in
  match load with
  | Original -> base
  | Rho r ->
      Workload.Trace.scale_load base
        ~capacity:Workload.Month_profile.capacity ~target:r

(* The month path: the month's trace at the REPRO_SEED, keyed
   [<label>/<load>]. *)
let month profile load =
  {
    key =
      Printf.sprintf "%s/%s" profile.Workload.Month_profile.label
        (load_label load);
    build = (fun () -> month_trace ~seed:(seed ()) profile load);
  }

let trace profile load = scenario_trace (month profile load)

(* A cached run with the sinks its observer fed. *)
type entry = {
  run : Sim.Run.t;
  log : Sim.Decision_log.t option;
  series : Sim.Series.t option;
}

let run_cache : (string, entry) Simcore.Memo.t =
  Simcore.Memo.create ~size:64 ()

(* Decision tracing: when on, every simulation computed into the run
   cache carries a decision log keyed by its cache key; the log rides
   in the cache entry, so cached runs keep their trace for later
   export.
   Runs already cached when tracing is switched on stay untraced —
   harnesses reset the caches when flipping the switch. *)
let tracing_cell = ref false
let set_tracing v = tracing_cell := v

(* Schedule validation: same switch pattern as tracing.  When on, every
   simulation computed into the run cache validates its finished
   schedule (differentially for the EASY backfill family, by policy
   name) and carries the report in [Sim.Run.t]. *)
let validation_cell = ref false
let set_validation v = validation_cell := v

(* Run-health series: same switch pattern again.  When on, every
   simulation computed into the run cache feeds a bounded sampler that
   rides in the cache entry for later report rendering. *)
let series_cell = ref false
let set_series v = series_cell := v

let simulate_scenario ~policy ~r_star scenario =
  (* A fresh instance per call: search policies carry per-run state, and
     only a cache miss simulates with it. *)
  let policy = policy () in
  let name = policy.Sched.Policy.name in
  let key =
    Printf.sprintf "%s/%s/%s" scenario.key (Sim.Engine.r_star_name r_star) name
  in
  let entry =
    Simcore.Memo.get run_cache key (fun () ->
        let log =
          if !tracing_cell then Some (Sim.Decision_log.create ~policy:name ())
          else None
        in
        let series =
          if !series_cell then Some (Sim.Series.create ~policy:name ())
          else None
        in
        let observe =
          match (log, series) with
          | None, None -> None
          | _ ->
              Some
                (fun d ->
                  Option.iter (fun l -> Sim.Decision_log.observe l d) log;
                  Option.iter (fun s -> Sim.Series.observe s d) series)
        in
        let validate =
          if !validation_cell then
            Some (Schedcheck.Validator.expectation_of_policy name)
          else None
        in
        let run =
          Sim.Run.simulate ?observe ?validate ~r_star ~policy
            (scenario_trace scenario)
        in
        { run; log; series })
  in
  entry.run

let simulate ~policy ~r_star profile load =
  simulate_scenario ~policy ~r_star (month profile load)

(* Cache entries carrying the optional artifact [field], sorted by key. *)
let cached field =
  Simcore.Memo.bindings run_cache
  |> List.filter_map (fun (key, entry) ->
         Option.map (fun x -> (key, x)) (field entry))
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let traced_runs () = cached (fun e -> e.log)
let validation_reports () = cached (fun e -> e.run.Sim.Run.validation)
let series_runs () = cached (fun e -> e.series)

let pp_series fmt =
  List.iter (fun (key, s) -> Sim.Series.pp_jsonl ~run:key fmt s)
    (series_runs ())

let pp_traces fmt =
  List.iter (fun (key, log) -> Sim.Decision_log.pp_jsonl ~run:key fmt log)
    (traced_runs ())

let chrome_trace_document () =
  Sim.Decision_log.chrome_document
    (List.concat
       (List.mapi
          (fun i (key, log) ->
            Sim.Decision_log.chrome_events ~run:key ~pid:(i + 1) log)
          (traced_runs ())))

let reset_caches () =
  Simcore.Memo.clear trace_cache;
  Simcore.Memo.clear run_cache;
  reset_scale ();
  reset_seed ();
  reset_months ()

let prefetch_runs ~months policies =
  prefetch
    (List.concat_map
       (fun (_, runner) ->
         List.map (fun m () -> ignore (runner m : Sim.Run.t)) months)
       policies)

let fcfs_run ~r_star profile load =
  simulate ~policy:(fun () -> Sched.Backfill.fcfs) ~r_star profile load

let fcfs_max_threshold ~r_star profile load =
  (fcfs_run ~r_star profile load).Sim.Run.aggregate.Metrics.Aggregate.max_wait

let fcfs_p98_threshold ~r_star profile load =
  (fcfs_run ~r_star profile load).Sim.Run.aggregate.Metrics.Aggregate.p98_wait

let dds_lxf_dynb ~budget () =
  fst (Core.Search_policy.policy (Core.Search_policy.dds_lxf_dynb ~budget))

let search_policy config () = fst (Core.Search_policy.policy config)

let section fmt ~id title =
  Format.fprintf fmt "@.%s@.== %s: %s@.%s@." (String.make 72 '=') id title
    (String.make 72 '=')
