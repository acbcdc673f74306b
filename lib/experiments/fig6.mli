(** Figure 6: impact of the node budget L (1K .. 100K) on
    DDS/lxf/dynB, January 2004, rho = 0.9, R* = T. *)

val run : Format.formatter -> unit
