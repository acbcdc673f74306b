(** Selective backfill (Srinivasan et al., JSSPP 2002).

    No job holds a reservation until its expansion factor crosses a
    starvation threshold; past the threshold it is treated as a
    priority job and reserved.  With the threshold at the average
    expansion factor of recently completed jobs the policy behaves very
    much like LXF-backfill on these workloads (which is what the paper
    reports); we expose a fixed threshold for simplicity and let the
    caller tune it.  The decision is {!Backfill.pass} over the
    submit-ordered queue, reserving exactly the blocked jobs past the
    threshold. *)

val policy : ?threshold:float -> unit -> Policy.t
(** [threshold] is the expansion factor beyond which a waiting job is
    granted a reservation (default 3.0).  Queue order is FCFS. *)
