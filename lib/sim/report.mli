(** Self-contained HTML run-health reports.

    Renders {!Series.t} samplers as static HTML documents: one
    inline-SVG chart per run-health signal (busy nodes, queue length,
    backlog, running jobs, longest current wait, cumulative excessive
    wait) overlaying every run on a shared simulated-time axis, plus a
    per-run summary table computed from the exact Timeline
    accumulators.  The documents embed their own CSS (with a
    [prefers-color-scheme: dark] variant) and use no JavaScript, no
    external assets and no network access, so a report file can be
    archived or mailed as-is.

    Rendering is a pure function of the input series, so report bytes
    are identical for any [REPRO_JOBS] / pool width (tested). *)

val page :
  title:string -> ?subtitle:string -> (string * Series.t) list -> string
(** [page ~title runs] is a complete HTML document charting the
    labelled runs together.  Runs are drawn in list order with the
    fixed categorical palette; a legend appears whenever there are at
    least two runs.  Series without observations are skipped in charts
    but listed in the summary table.  Charts draw at most 8 runs (the
    palette is never cycled); extra runs still appear in the summary
    table and the legend notes how many were not drawn. *)

type section = {
  href : string;  (** relative link to the section's {!page} file *)
  title : string;
  runs : (string * Series.t) list;
}

val index : title:string -> section list -> string
(** Cross-page index: a table of contents plus, per section, the same
    per-run summary table as {!page} — the cross-policy comparison at
    a glance, with the trajectory charts one link away. *)
