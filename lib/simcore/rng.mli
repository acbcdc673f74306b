(** Deterministic pseudo-random number generation.

    A self-contained splitmix64 generator so that every experiment is
    exactly reproducible from a seed, independent of the OCaml stdlib
    [Random] state and of program start-up order.  Each consumer should
    [split] its own stream so that adding draws in one subsystem never
    perturbs another. *)

type t
(** A mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] is a fresh generator.  Equal seeds give equal
    streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing
    [t] by one draw. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)].  @raise Invalid_argument if
    [n <= 0]. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val unit_float : t -> float
(** Uniform in [\[0, 1)]. *)
