(** Domain-safe, compute-once memo table.

    [get t key thunk] returns the cached value for [key], forcing
    [thunk] at most once per key across all domains: the first caller
    computes (outside any table-wide lock, so distinct keys compute in
    parallel) while concurrent callers for the same key block until the
    value — or the exception — is ready.  A raising thunk is also
    recorded once; every caller for that key re-raises the same
    exception (the table's thunks are deterministic, so retrying could
    only fail identically). *)

type ('k, 'v) t

val create : ?size:int -> unit -> ('k, 'v) t
(** [size] is the initial hash-table capacity (default 64). *)

val get : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v

val bindings : ('k, 'v) t -> ('k * 'v) list
(** All [Ready] bindings, unspecified order (sort by key for a
    deterministic listing).  In-flight and failed keys are skipped. *)

val clear : ('k, 'v) t -> unit
(** Drop every binding.  In-flight computations complete normally for
    callers already attached to them, but later [get]s recompute. *)
