(** Time-ordered event queue for discrete-event simulation.

    Events are delivered in non-decreasing time order; events scheduled
    for the same instant are delivered in insertion order (FIFO), which
    makes simulations deterministic regardless of heap internals. *)

type 'a t
(** A queue of events carrying payloads of type ['a]. *)

val create : unit -> 'a t

val schedule : 'a t -> time:float -> 'a -> unit
(** [schedule q ~time e] enqueues event [e] at [time].  Scheduling in
    the past relative to already-popped events is allowed (the queue
    itself is oblivious); drivers should not do it. *)

val next_time : 'a t -> float
(** Time of the earliest pending event, [infinity] when there is none.
    It builds no option, so a simulation loop can poll it for free. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest event with its time. *)

val is_empty : 'a t -> bool
val length : 'a t -> int
