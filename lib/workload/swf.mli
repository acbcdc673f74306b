(** Standard Workload Format (SWF) reader / writer.

    SWF is the de-facto archive format for parallel-machine job traces
    (Feitelson's Parallel Workloads Archive).  Each non-comment line
    has 18 whitespace-separated fields; comment lines start with [';'].
    This lets users run the schedulers on real traces (e.g. the actual
    NCSA logs, if they have access) instead of the synthetic ones.

    Field mapping into {!Job.t}:
    - submit time      <- field 2 (seconds)
    - actual runtime   <- field 4 (seconds)
    - nodes            <- field 8 (requested processors), falling back
                          to field 5 (allocated processors) when -1
    - requested runtime <- field 9, falling back to actual runtime
    - user             <- field 12 when present and positive

    Jobs with unusable fields (non-positive runtime or width, negative
    submit, or a [nan]/[inf] in any numeric field read) are skipped and
    counted.  CRLF line endings are accepted
    (the trailing carriage return is stripped before parsing);
    malformed lines — wrong field count, non-numeric numeric fields —
    are reported as [Error] with their line number. *)

type parse_result = {
  trace : Trace.t;
  skipped : int;  (** lines that described unusable jobs *)
  comments : string list;  (** header comment lines, in order *)
}

val of_file : string -> (parse_result, string) result

val to_file : ?comments:string list -> string -> Trace.t -> unit
(** Write a trace as an SWF file with optional header comments.  Every
    job's wait-time field is 0: the file describes a workload, not a
    schedule. *)
