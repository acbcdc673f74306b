(** Published per-month workload statistics for the NCSA IA-64 (Titan)
    cluster, transcribed from Tables 2-4 of the paper.

    These are the calibration targets for the synthetic generator: the
    real traces are not publicly archived, so we regenerate workloads
    whose marginals match the published job-mix tables.  Percentages
    are kept exactly as printed (OCR noise of a few tenths of a percent
    is renormalised by consumers). *)

type t = {
  label : string;  (** e.g. "6/03" *)
  n_jobs : int;  (** Table 3 "Total" #jobs row *)
  load : float;  (** Table 3 offered load as a fraction, e.g. 0.82 *)
  runtime_limit : float;  (** Table 2 job runtime limit, seconds *)
  jobs8 : float array;  (** Table 3: % of jobs per 8 node-size ranges *)
  demand8 : float array;  (** Table 3: % of proc demand per range *)
  short5 : float array;
      (** Table 4 (T <= 1h): % of all jobs per 5 node classes *)
  long5 : float array;
      (** Table 4 (T > 5h): % of all jobs per 5 node classes *)
}

val capacity : int
(** Cluster size in nodes (Table 2): 128. *)

val span : float
(** Length of one simulated month, seconds (30 days). *)

val all : t array
(** The ten months, June 2003 .. March 2004, in order. *)

val find : string -> t
(** [find "1/04"] looks a month up by label.
    @raise Not_found on unknown labels. *)

val short_given_class : t -> int -> float
(** [short_given_class m c] is P(T <= 1h | node class c), derived from
    Tables 3 and 4, clamped to [0, 1]. *)

val long_given_class : t -> int -> float
(** [long_given_class m c] is P(T > 5h | node class c), clamped so that
    together with {!short_given_class} it never exceeds 1. *)

val class_tables : t -> float array * float array
(** [class_tables m] is [(short, long)] with [short.(c) =
    short_given_class m c] and [long.(c) = long_given_class m c] for
    the five classes: the generator builds them once per month and
    reads one entry of each per job. *)

val pp : Format.formatter -> t -> unit
