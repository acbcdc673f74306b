(** Index of all reproduction experiments, for the CLI and the bench
    harness. *)

type t = {
  id : string;  (** e.g. "fig4" *)
  title : string;
  run : Format.formatter -> unit;
}

val all : t list
(** Paper experiments first (fig1..fig8, table3+4, overhead), then the
    ablations. *)

val find : string -> t option
