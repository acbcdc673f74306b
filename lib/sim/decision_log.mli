(** Per-decision event log: structured run tracing.

    A bounded ring buffer of scheduling-decision events — decision
    time, queue length, jobs started, and the search effort snapshot
    from the policy's {!Simcore.Telemetry.Probe} (zeros for policies
    that do not search).  Passed to {!Engine.run} as (part of) its
    [observe] hook, it records one event per decision point; when the
    ring is full the oldest events are dropped (the drop count is
    kept, and the exporters report it).

    Everything recorded is a pure function of the simulation inputs —
    no wall-clock time, no randomness — so exported traces are
    byte-identical for any [REPRO_JOBS] / pool width, like every other
    experiment output (tested).

    Export formats:
    - {!pp_jsonl}: one JSON object per line, schema [decision_trace/1]
      (see DESIGN.md section 7 for the field list);
    - {!chrome_events}: Chrome [trace_event] objects (one complete
      "X" span per decision on the *simulated* time axis, 1 trace
      microsecond = 1 simulated microsecond, span duration = nodes
      visited, plus a "queue" counter track), to be wrapped by
      {!chrome_document} and opened in [chrome://tracing] /
      [ui.perfetto.dev]. *)

type decision = {
  seq : int;  (** 0-based decision index within the run *)
  time : float;  (** simulated decision time, seconds *)
  queue : int;  (** waiting-queue length the policy saw *)
  started : int;  (** jobs started by this decision *)
  searched : bool;  (** the policy ran a tree search (has a probe) *)
  nodes : int;
  leaves : int;
  iterations : int;
  budget : int;
  exhausted : bool;
  improvements : int;
  winner_iteration : int;
  winner_depth : int;
}

type t

val create : ?capacity:int -> policy:string -> unit -> t
(** Ring of at most [capacity] decisions (default 65536, clamped to
    >= 1). *)

val observe : t -> Engine.decision -> unit
(** The engine observer: append one decision event — its time, the
    queue length the policy saw, the number of jobs it started — and
    snapshot the probe fields (zeros when [None]). *)

val recorded : t -> int
(** Total events ever recorded, including dropped ones. *)

val dropped : t -> int

val decisions : t -> decision list
(** Retained events, oldest first. *)

val pp_jsonl : ?run:string -> Format.formatter -> t -> unit
(** One [{"type":"run", ...}] header line carrying the policy name,
    schema id, retained/dropped counts, then one
    [{"type":"decision", ...}] line per retained event.  [run] labels
    every line so multiple logs can share one file (default [""]). *)

val chrome_events : ?run:string -> ?pid:int -> t -> string list
(** Chrome [trace_event] JSON objects (no enclosing brackets), in
    event order: thread metadata, one "X" decision span and one
    "queue" counter sample per retained event.  [pid] separates runs
    in the viewer (default 1). *)

val escape : string -> string
(** Minimal JSON string-body escaping (quotes, backslashes, control
    characters); the one escaper of every JSONL exporter here. *)

val chrome_document : string list -> string
(** [{"traceEvents":[...]}] document around Chrome [trace_event]
    objects, one per line, newline-terminated.  The one writer of
    every Chrome trace file the repository produces. *)
