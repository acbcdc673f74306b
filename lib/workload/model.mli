(** Parametric rigid-job workload model (robustness substrate).

    A second, independent workload source in the spirit of the
    classical supercomputer-workload models (Lublin & Feitelson, JPDC
    2003; Jann et al.): node counts favour powers of two with a serial
    fraction, runtimes are a lognormal mixture of short and long jobs,
    arrivals follow the diurnal/weekly cycle.  Unlike
    {!Generator}, nothing here is calibrated to the NCSA tables — it
    exists to check that the paper's policy relationships are not an
    artifact of the table-calibrated generator.

    The model resembles the literature's medium-load academic
    machines: a 128-node machine ({!Month_profile.capacity}), about
    115 jobs a day, a 12 h runtime limit; one job in four is serial,
    and three parallel jobs in four are an exact power of two up to
    128 nodes.  Runtimes are short (lognormal around 15 min) with
    probability 0.65, else long (around 4 h), and lie in
    [\[10 s, 12 h\]]. *)

val generate : seed:int -> days:float -> Trace.t
(** [generate ~seed ~days] produces a trace spanning [days] days
    with a one-day warm-up and cool-down excluded from the measurement
    window.  Deterministic in [seed].
    @raise Invalid_argument if [days <= 0]. *)
