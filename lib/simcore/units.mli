(** Time units and conversions.

    All simulation times are [float] seconds since the start of the
    simulated period.  These helpers keep unit conversions explicit and
    avoid magic constants scattered through the code base. *)

val minute : float
(** Seconds in one minute. *)

val hour : float
(** Seconds in one hour. *)

val day : float
(** Seconds in one day. *)

val week : float
(** Seconds in one week. *)

val minutes : float -> float
(** [minutes m] is [m] minutes expressed in seconds. *)

val hours : float -> float
(** [hours h] is [h] hours expressed in seconds. *)

val days : float -> float
(** [days d] is [d] days expressed in seconds. *)

val to_hours : float -> float
(** [to_hours s] converts [s] seconds to hours. *)

val to_days : float -> float
(** [to_days s] converts [s] seconds to days. *)

val pp_duration : Format.formatter -> float -> unit
(** [pp_duration fmt s] pretty-prints a duration in seconds using the
    most natural unit, e.g. ["2.5h"], ["13m"], ["45s"]. *)
