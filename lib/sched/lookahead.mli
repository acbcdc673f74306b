(** Lookahead backfilling (Shmueli & Feitelson, JSSPP 2003).

    Instead of backfilling jobs one at a time in queue order, pick the
    *set* of waiting jobs that maximizes the number of nodes put to
    work right now, under the constraint that the head job's
    reservation is not delayed.  The selection is a 0/1 knapsack over
    node counts (dynamic programming), restricted to jobs that
    individually fit the reservation-carved profile; the chosen set is
    then re-validated sequentially against the profile
    ({!Backfill.pass} with no reservations) so that duration
    interactions cannot oversubscribe later instants.

    The head starts if it fits, otherwise it holds the one reservation.
    A head that starts leaves nothing protected: where EASY would
    reserve the first blocked job behind it, the knapsack may pick any
    job that fits now (on the example in {!Relaxed}, lookahead starts
    [A; C] and delays B by 9 h).

    The paper found Lookahead to behave much like FCFS-backfill on the
    NCSA workloads; it is provided as a related-work baseline. *)

val policy : unit -> Policy.t
