(** Run-health metric registry.

    A named-metric registry for one simulation run: counters, gauges
    and fixed 63-bucket log2 histograms, plus an OpenMetrics/Prometheus
    text exposition writer.  A registry is a per-run instance — runs
    executing in parallel on the domain pool each own theirs and never
    contend.

    There is no switch: "off" is not observing a run with a registry
    (the engine's one [?observe] hook is optional).  Recording
    writes into storage preallocated at registration and never
    allocates per observation (tested).

    Instruments are single-writer: record only from the domain that
    owns the run. *)

type t
(** A registry: an ordered collection of named instruments. *)

val create : unit -> t
(** Fresh empty registry. *)

(** {2 Histogram bucket geometry}

    Bucket 0 holds values [<= 0]; bucket [b >= 1] holds values in
    [2^(b-1) .. 2^b - 1], with the top bucket extending to [max_int]. *)

val buckets : int
(** Number of buckets (63: one per magnitude bit of an OCaml int,
    plus bucket 0 for non-positive values). *)

val bucket_of : int -> int
(** [bucket_of v] is the bucket index [v] falls into (total map:
    negatives also land in bucket 0). *)

val bucket_lo : int -> int
val bucket_hi : int -> int
(** Inclusive value range covered by a bucket index. *)

(** {2 Instruments}

    Metric names must match the OpenMetrics charset
    [[a-zA-Z_:][a-zA-Z0-9_:]*] and be unique within their registry;
    registration raises [Invalid_argument] otherwise.  Counter names
    are given without the ["_total"] suffix (the exposition writer
    appends it). *)

type counter
type gauge
type histogram

val counter : t -> ?help:string -> string -> counter
(** Monotone int accumulator. *)

val gauge : t -> ?help:string -> string -> gauge
(** Last-write-wins float level (queue depth, busy nodes, ...). *)

val histogram : t -> ?help:string -> string -> histogram
(** Distribution of ints over the {!buckets} log2 buckets. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val set : gauge -> float -> unit
val gauge_value : gauge -> float

val observe : histogram -> int -> unit

val histogram_count : histogram -> int
(** Observations recorded. *)

val histogram_total : histogram -> int
(** Sum of observed values. *)

val histogram_percentile : histogram -> float -> float
(** [histogram_percentile h p] ([0 <= p <= 100]) estimates the p-th
    percentile by linear interpolation inside the bucket where the
    cumulative count crosses the rank; 0.0 when empty.  Accurate to
    within one bucket width by construction.
    @raise Invalid_argument if [p] is out of range. *)

(** {2 Exposition} *)

val pp_openmetrics : Format.formatter -> t -> unit
(** OpenMetrics text exposition of every instrument, in registration
    order, terminated by [# EOF].  Counters expose [name_total];
    histograms expose cumulative [name_bucket{le="..."}] series over
    the occupied buckets plus [le="+Inf"], [name_count] and
    [name_sum]. *)
