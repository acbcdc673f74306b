(** Decayed per-user usage accounting (the Section 7 "fairshare"
    future-work feature).

    Tracks, for each user, an exponentially decayed sum of the
    node-seconds their started jobs consumed; the search policy can
    inflate a heavy user's excessive-wait threshold proportionally to
    their current share, so the first-level goal tolerates longer waits
    for users who already got more than their share of the machine.

    Decay uses a half-life of one week: usage recorded [h] seconds ago
    counts at [2^(-h/week)] of its original weight. *)

type t

val create : unit -> t

val record_start :
  t -> now:float -> nodes:int -> duration:float -> user:int -> unit
(** Charge a job's full estimated area to its user at start time.
    Users [<= 0] (unknown) are not tracked. *)

val threshold_factor : t -> now:float -> penalty:float -> int -> float
(** [1 + penalty * share], where [share] is the user's fraction of all
    decayed usage, in [\[0, 1\]] (0 when nothing has been recorded);
    multiply a job's excessive-wait threshold by this to de-prioritize
    heavy users. *)
