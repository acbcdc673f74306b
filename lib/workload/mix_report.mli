(** Job-mix statistics of a trace, in the shape of the paper's
    Tables 3 and 4.

    Used both to verify the generator's calibration against
    {!Month_profile} targets and to characterise arbitrary (e.g. SWF)
    traces.  All statistics are computed over the measured window
    only. *)

type t = {
  n_jobs : int;
  load : float;  (** offered load over the measured window *)
  jobs8 : float array;  (** %% of jobs per Table 3 node-size range *)
  demand8 : float array;  (** %% of demand per range *)
  short5 : float array;  (** %% of all jobs: T <= 1h, per node class *)
  long5 : float array;  (** %% of all jobs: T > 5h, per node class *)
}

val of_trace : capacity:int -> Trace.t -> t


val pp_table3_row : Format.formatter -> label:string -> t -> unit
(** Two lines in the format of a Table 3 month entry. *)

val pp_table4_row : Format.formatter -> label:string -> t -> unit
(** Two lines in the format of a Table 4 month entry. *)
