(** Fixed-size domain work pool.

    A pool spawns [jobs - 1] worker domains once at [create] and reuses
    them across any number of batches; the calling domain participates
    in every batch, so a pool of [jobs = n] runs at most [n] work items
    concurrently.  With [jobs = 1] no domain is ever spawned and
    [map]/[iter] degenerate to plain in-order sequential execution in
    the caller — bit-for-bit the pre-pool behaviour.

    Work items must not depend on execution order (they may run in any
    interleaving), but [map] always returns results in input order.
    Batches are serialized: concurrent [map]/[iter] calls on one pool
    queue up behind each other.

    The pool itself performs no I/O and draws no randomness; combined
    with item-order-independent work (e.g. seed-deterministic
    simulations memoized by key) results are identical for every value
    of [jobs]. *)

type t

module Span : sig
  type t = {
    domain : int;  (** draining slot: 0 = submitting domain, 1.. = workers *)
    batch : int;  (** batch sequence number (per pool) *)
    task : int;  (** task index within the batch *)
    posted_s : float;  (** monotonic time the batch was posted *)
    start_s : float;  (** monotonic time the task started running *)
    stop_s : float;  (** monotonic time the task finished *)
  }

  val wait_s : t -> float
  (** Queue wait: batch post to task start. *)

  val busy_s : t -> float
end

val create : jobs:int -> t
(** [create ~jobs] spawns [max jobs 1 - 1] worker domains.  The pool
    must eventually be released with [shutdown] (idle workers block in
    a condition wait; they cost nothing but stay alive until then). *)

val jobs : t -> int
(** Concurrency width, including the calling domain; >= 1. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count () - 1], clamped to >= 1 — one
    core is left for the OS / the caller's other work. *)

val map : t -> f:('a -> 'b) -> 'a list -> 'b list
(** [map t ~f xs] applies [f] to every element of [xs] on the pool and
    returns the results in input order.  If one or more applications
    raise, the remaining items still run to completion, then the
    exception of the lowest-indexed failing item is re-raised (with its
    original backtrace) in the caller. *)

val iter : t -> f:('a -> unit) -> 'a list -> unit
(** [iter t ~f xs] is [map] with unit results. *)

val set_tracing : t -> bool -> unit
(** Turn per-task span recording on or off (initially off).  With
    tracing off the per-task overhead is one boolean test; with it on,
    each task records a {!Span.t} (wall-clock, so spans are
    inspection data — they are {e not} part of the deterministic
    output surface). *)

val spans : t -> Span.t list
(** Recorded spans in (batch, task) order — deterministic listing
    order even though the times inside are wall-clock. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent.  Subsequent
    [map]/[iter] calls raise [Invalid_argument]. *)

val with_pool : jobs:int -> (t -> 'r) -> 'r
(** [with_pool ~jobs f] runs [f] over a fresh pool and shuts it down
    afterwards, also on exception. *)
