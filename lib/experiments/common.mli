(** Shared plumbing for the paper-reproduction experiments.

    Environment knobs (read once at first use):
    - [REPRO_SCALE]  — workload scale factor (default 1.0; smaller
      values shrink both job counts and the time axis, preserving
      load, for CI-sized runs);
    - [REPRO_MONTHS] — comma-separated month labels (default: all ten);
    - [REPRO_SEED]   — generator seed (default 42).

    Traces and simulation runs are memoized per process so that every
    figure sharing a (month, load, policy, estimator) combination pays
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

val par_iter : ('a -> unit) -> 'a list -> unit
val par_map : ('a -> 'b) -> 'a list -> 'b list
(** Run over the shared pool; [par_map] preserves input order. *)

val prefetch : (unit -> unit) list -> unit
(** Execute a plan — the enumerated run set of a figure — through the
    pool.  Thunks typically force [trace]/[simulate] cache entries;
    the compute-once tables absorb duplicates between overlapping
    plans. *)

val prefetch_runs :
  months:Workload.Month_profile.t list ->
  (string * (Workload.Month_profile.t -> Sim.Run.t)) list ->
  unit
(** [prefetch_runs ~months policies] warms the run cache for the full
    (policy x month) grid of a figure panel. *)

val reset_caches : unit -> unit
(** Drop the trace/run caches and re-read the [REPRO_*] environment
    knobs on next use.  For harnesses that rerun experiments in-process
    (determinism tests, perf measurement); not needed in normal runs. *)

(** {2 Decision tracing}

    When tracing is on, every simulation computed into the run cache
    records a {!Sim.Decision_log.t} (one event per scheduling
    decision) labelled by its cache key.  The exporters below list
    runs in sorted-key order, so their output is byte-identical for
    every [jobs] setting, exactly like rendered experiment output.
    Flip the switch {e before} warming the cache (or after
    [reset_caches]) — already-cached runs stay untraced. *)

val set_tracing : bool -> unit
val tracing : unit -> bool

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
val validation : unit -> bool

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

val trace : Workload.Month_profile.t -> load -> Workload.Trace.t
(** Generated (and, for [Rho r], load-scaled) trace; memoized. *)

val simulate :
  policy_key:string ->
  policy:(unit -> Sched.Policy.t) ->
  r_star:Sim.Engine.r_star ->
  Workload.Month_profile.t ->
  load ->
  Sim.Run.t
(** Memoized simulation.  [policy_key] must uniquely identify the
    policy configuration; [policy] is forced only on a cache miss. *)

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
