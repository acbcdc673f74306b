(** Bounded simulated-time run-health series.

    A sampler fed every decision point as an {!Engine.run} observer
    (decisions happen exactly at job arrivals and departures, so every
    completion instant is sampled too): busy nodes, waiting-queue
    length and core demand (backlog), running-job count, the longest
    current wait in the queue, and the cumulative excessive wait of
    started jobs.
    This is the system-level health signal behind the paper's
    Figures 2-8 — queue and backlog trajectories, utilization, and
    excess-wait accumulation over the month.

    Memory is fixed: the series holds at most 4,096 samples.
    When full it deterministically halves its resolution — adjacent
    samples merge pairwise ({!merge}: the later sample's instantaneous
    values and the min/max envelope of both) and from then on one
    sample summarizes twice as many observations.  The committed
    samples are therefore a pure function of the observation sequence,
    so exports are byte-identical for any [REPRO_JOBS] / pool width,
    like every other experiment artifact (tested).

    Whole-run summaries ({!summary}) do not go through the bounded
    buffer at all: exact time-weighted averages and extremes come from
    {!Simcore.Stats.Timeline} accumulators fed at every observation. *)

type 'a band = {
  v : 'a;  (** value at the band's last observation *)
  lo : 'a;  (** minimum over the observations merged into it *)
  hi : 'a;  (** maximum over them *)
}

type sample = {
  t : float;  (** time of the last observation merged into this sample *)
  span : int;  (** number of raw observations merged *)
  busy : int band;  (** busy nodes *)
  queue : int band;  (** waiting jobs *)
  demand : int band;  (** nodes demanded by waiting jobs (backlog) *)
  running : int band;  (** running jobs *)
  max_wait : float band;  (** longest current wait in the queue, s *)
  excess : float;
      (** cumulative excessive wait of jobs started by [t], seconds
          (non-decreasing across samples) *)
}

val merge : sample -> sample -> sample
(** [merge a b] summarizes [a] followed by the later [b]: time, values
    and [excess] from [b], each band's envelope over both, spans
    added.  The one downsampling step of both the series' halving and
    {!Report}'s chart thinning. *)

type t

val create : ?threshold:float -> policy:string -> unit -> t
(** Series of at most 4,096 samples.  [threshold] is the per-job
    wait (seconds) beyond which wait counts as excessive (default 0.0:
    all wait accumulates — policy-independent, unlike the paper's
    FCFS-derived E^max/E^98% thresholds, so trajectories of different
    policies compare directly). *)

val observed : t -> int
(** Raw observations fed so far. *)

val stride : t -> int
(** Observations summarized per sample (doubles at each halving). *)

val length : t -> int
(** Committed samples (at most 4,096).  The at most [stride - 1]
    newest observations still accumulating toward the next sample are
    not yet visible in {!samples}. *)

val samples : t -> sample list
(** Committed samples, oldest first. *)

val cumulative_excess : t -> float

val observe : t -> Engine.decision -> unit
(** The engine observer: record one decision-point observation.  Each
    started job's wait beyond the threshold joins the cumulative
    excessive wait first, so the observation includes it.  Decision
    times must be non-decreasing across calls.
    @raise Invalid_argument if time goes backwards. *)

(** {2 Summaries} *)

type summary = {
  label : string;  (** signal name: busy_nodes, queue_jobs, ... *)
  last : float;  (** value at the last observation *)
  avg : float;  (** time-weighted average over the observed span *)
  lo : float;  (** minimum over positive-duration spans *)
  hi : float;  (** maximum over positive-duration spans *)
}

val summary : t -> summary list
(** One row per signal (busy_nodes, queue_jobs, backlog_nodes,
    running_jobs, max_wait_s, excess_s), computed from the exact
    Timeline accumulators up to the last observation — unaffected by
    downsampling.  Empty list before the first observation. *)

(** {2 Export} *)

val schema : string
(** The JSONL schema identifier, ["run_series/1"]. *)

val pp_jsonl : ?run:string -> Format.formatter -> t -> unit
(** One [{"type":"run", ...}] header carrying the policy, observation
    and sample counts, stride and threshold, then one
    [{"type":"sample", ...}] line per committed sample.  [run] labels
    every line so multiple series can share one file (default [""]). *)
