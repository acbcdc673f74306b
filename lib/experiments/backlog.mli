(** Backlog dynamics (extension of Figure 4(d)).

    The paper reports the month-average queue length; this experiment
    prints the *daily* average queue length per policy for the month
    the paper found hardest (1/04), exposing how each policy drains (or
    accumulates) a backlog wave over time. *)

val run : Format.formatter -> unit
