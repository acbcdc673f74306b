(** Structured invariant-violation reports.

    Every check in this library renders its findings as a {!t}: which
    schedule was validated, how much of it was covered, and one
    {!violation} per broken invariant — the invariant's name, the
    decision time at which it was detected, and the offending job ids.
    Reports are plain data so callers decide the severity: the CLI
    prints them and exits non-zero, the bench harness aggregates them
    across the run cache, tests assert on individual fields. *)

type violation = {
  invariant : string;
      (** stable identifier, e.g. ["capacity"], ["start-after-submit"],
          ["backfill-differential"], ["easy-reservation-bound"] (see
          {!Validator} for the full inventory) *)
  time : float;  (** simulated decision time of the detection, seconds *)
  jobs : int list;  (** offending job ids (may be empty) *)
  detail : string;  (** human-readable specifics *)
}

type t = {
  subject : string;  (** what was validated, e.g. the policy name *)
  jobs_checked : int;  (** outcomes examined *)
  decisions_checked : int;  (** decision points replayed *)
  violations : violation list;  (** detection order *)
}

val ok : t -> bool
(** No violations. *)

val v :
  subject:string ->
  jobs_checked:int ->
  decisions_checked:int ->
  violation list ->
  t

val pp : Format.formatter -> t -> unit
(** A header line, e.g.
    ["FCFS-backfill: 40 jobs, 78 decisions, 0 violations"], plus one
    line per violation. *)
