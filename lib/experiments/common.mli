(** Shared plumbing for the paper-reproduction experiments.

    Environment knobs (read on each use):
    - [REPRO_SCALE]  — workload scale factor (default 1.0; smaller
      values shrink both job counts and the time axis, preserving
      load, for CI-sized runs);
    - [REPRO_MONTHS] — comma-separated month labels (default: all ten);
    - [REPRO_SEED]   — generator seed (default 42).

    Traces and simulation runs are memoized per process so that every
    figure sharing a (scenario, policy, estimator) combination pays
    for it once.  The memo tables are domain-safe and compute-once
    ([Simcore.Memo]): concurrent requests for one key force the policy
    thunk and run the simulation exactly once, everyone else blocks on
    the promise.  Figure harnesses enumerate their run sets up front
    and warm the cache through a shared domain pool ([prefetch] /
    [prefetch_runs]); formatting then reads the warm cache
    sequentially, so output is byte-identical for every [jobs]
    setting. *)

type load = Original | Rho of float

val load_label : load -> string

val scale : unit -> float
val seed : unit -> int
val months : unit -> Workload.Month_profile.t list

(** {2 Parallel execution}

    One process-wide domain pool, sized by the [REPRO_JOBS] environment
    variable (or a [-j] flag via [set_jobs]; default:
    [Domain.recommended_domain_count () - 1], at least 1).  [jobs = 1]
    preserves the sequential path exactly: no domain is spawned and
    work runs in submission order in the caller. *)

val jobs : unit -> int
(** The resolved concurrency width. *)

val set_jobs : int -> unit
(** Override the width (clamped to >= 1); shuts down and re-creates
    the shared pool on the next use if the width changed. *)

val pool : unit -> Simcore.Pool.t
(** The shared pool, created on first use. *)

val shutdown_pool : unit -> unit
(** Join the pool's worker domains (recreated on next [pool ()]). *)

val par_map : ('a -> 'b) -> 'a list -> 'b list
(** Map over the shared pool, preserving input order.  For work that
    simulates nothing (e.g. the anytime search grid); simulations go
    through {!simulate_scenario} so the run-cache switches see them. *)

val prefetch : (unit -> unit) list -> unit
(** Execute a plan — the enumerated run set of a figure — through the
    pool.  Thunks typically force {!simulate_scenario} cache entries;
    the compute-once tables absorb duplicates between overlapping
    plans. *)

val prefetch_runs :
  months:Workload.Month_profile.t list ->
  (string * (Workload.Month_profile.t -> Sim.Run.t)) list ->
  unit
(** [prefetch_runs ~months policies] warms the run cache for the full
    (policy x month) grid of a figure panel. *)

val reset_caches : unit -> unit
(** Drop the trace and run caches, so that runs after a change to the
    [REPRO_*] knobs rebuild their traces.  For harnesses that rerun
    experiments in-process (determinism tests, perf measurement); not
    needed in normal runs. *)

(** {2 Decision tracing}

    When tracing is on, every simulation computed into the run cache
    records a {!Sim.Decision_log.t} (one event per scheduling
    decision) labelled by its cache key.  The exporters below list
    runs in sorted-key order, so their output is byte-identical for
    every [jobs] setting, exactly like rendered experiment output.
    Flip the switch {e before} warming the cache (or after
    [reset_caches]) — already-cached runs stay untraced. *)

val set_tracing : bool -> unit

val traced_runs : unit -> (string * Sim.Decision_log.t) list
(** Cached runs that carry a decision log, sorted by cache key. *)

val pp_traces : Format.formatter -> unit
(** JSONL ([decision_trace/1]) of every traced cached run. *)

val chrome_trace_document : unit -> string
(** One Chrome [{"traceEvents":[...]}] document over every traced
    cached run (one pid per run, simulated-time axis). *)

(** {2 Schedule validation}

    Same switch pattern as tracing: when on, every simulation computed
    into the run cache validates its finished schedule
    ({!Schedcheck.Validator}) — differentially for the EASY backfill
    family (selected by policy name), machine-level invariants for
    everything else — and carries the {!Schedcheck.Report.t} in
    {!Sim.Run.t}.  Flip the switch {e before} warming the cache. *)

val set_validation : bool -> unit

val validation_reports : unit -> (string * Schedcheck.Report.t) list
(** Cached runs that carry a validation report, sorted by cache key. *)

(** {2 Run-health series}

    Same switch pattern as tracing: when on, every simulation computed
    into the run cache feeds a bounded {!Sim.Series.t} sampler (one
    run-health observation per decision point) kept with the cached
    run.  The exporters list runs in sorted-key order, so
    output is byte-identical for every [jobs] setting.  Flip the
    switch {e before} warming the cache. *)

val set_series : bool -> unit

val series_runs : unit -> (string * Sim.Series.t) list
(** Cached runs that carry a run-health series, sorted by cache key. *)

val pp_series : Format.formatter -> unit
(** JSONL ([run_series/1]) of every sampled cached run. *)

(** {2 Scenarios and the run cache}

    Every experiment simulation goes through {!simulate_scenario}, so
    the tracing, validation and series switches above cover all of
    them.  A run's cache key is
    [<scenario key>/<estimator>/<policy name>]. *)

type scenario = { key : string; build : unit -> Workload.Trace.t }
(** A trace key and the builder of its trace.  Keys have the shape
    [<a>/<b>/<load>]: [7/03/rho=0.90] for a month,
    [9/03+seed=1001/rho=0.90] or [model/seed=1/rho=0.85] for other
    workloads. *)

val scenario_trace : scenario -> Workload.Trace.t
(** The trace memoized under the scenario's key; [build] runs on the
    first request only. *)

val simulate_scenario :
  policy:(unit -> Sched.Policy.t) ->
  r_star:Sim.Engine.r_star ->
  scenario ->
  Sim.Run.t
(** Memoized simulation of the scenario's trace.  [policy] builds a
    fresh instance on every call; the instance's name, which must
    uniquely identify the policy configuration, keys the run (and
    labels its decision log and series), and only a cache miss
    simulates with it. *)

val month_trace :
  seed:int -> Workload.Month_profile.t -> load -> Workload.Trace.t
(** Generate the month at generator seed [seed] and the [REPRO_SCALE]
    scale, load-scaled for [Rho r]; not memoized. *)

val trace : Workload.Month_profile.t -> load -> Workload.Trace.t
(** The month's trace at the [REPRO_SEED], keyed [<label>/<load>];
    memoized. *)

val simulate :
  policy:(unit -> Sched.Policy.t) ->
  r_star:Sim.Engine.r_star ->
  Workload.Month_profile.t ->
  load ->
  Sim.Run.t
(** {!simulate_scenario} on the month's trace ({!trace}). *)

val fcfs_run :
  r_star:Sim.Engine.r_star -> Workload.Month_profile.t -> load -> Sim.Run.t
(** The month's FCFS-backfill run (the reference for excessive-wait
    thresholds). *)

val fcfs_max_threshold :
  r_star:Sim.Engine.r_star -> Workload.Month_profile.t -> load -> float
(** FCFS-backfill maximum wait of the month, seconds. *)

val fcfs_p98_threshold :
  r_star:Sim.Engine.r_star -> Workload.Month_profile.t -> load -> float
(** FCFS-backfill 98th-percentile wait of the month, seconds. *)

val dds_lxf_dynb : budget:int -> unit -> Sched.Policy.t
(** Fresh instance of the paper's headline policy. *)

val search_policy : Core.Search_policy.config -> unit -> Sched.Policy.t

val section : Format.formatter -> id:string -> string -> unit
(** Print a section banner. *)
