(** Per-user performance and fairness measures (for the fairshare
    extension).

    Aggregates outcomes by submitting user and summarizes how evenly
    service quality is spread with Jain's fairness index over the
    per-user average bounded slowdowns: 1.0 = perfectly even,
    [1/n] = one user gets everything. *)

type t

val compute : Outcome.t list -> t
(** Jobs with user [<= 0] are ignored. *)

val jain_index : t -> float
(** Jain's index over per-user average bounded slowdowns; 0 when there
    are no users. *)

val pp_top : n:int -> Format.formatter -> t -> unit
(** Table of the [n] heaviest users, by descending node-seconds
    demand: for each, its job count, its share of all demand (%), its
    average wait (h) and its average bounded slowdown; then the Jain
    index. *)
