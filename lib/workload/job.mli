(** The parallel-job model.

    Each job is submitted with a required number of nodes [nodes] (N in
    the paper's notation) and a user-requested runtime [requested] (R);
    it actually runs for [runtime] (T).  A node is the smallest
    allocation unit (NCSA IA-64: 128 dual-processor nodes).  Jobs are
    rigid and non-preemptible: once started on [nodes] nodes a job holds
    them for exactly [runtime] seconds.

    Every job satisfies [runtime <= requested]: {!make} rejects any
    other, and {!Swf} raises a logged R to T before building the job.
    So no job reaches its requested limit, and T is its run length;
    nothing needs [min(T, R)]. *)

type t = {
  id : int;  (** unique within a trace, assigned in submit order *)
  submit : float;  (** submission time, seconds from trace origin *)
  nodes : int;  (** requested number of nodes, N >= 1 *)
  runtime : float;  (** actual runtime T, seconds, > 0 *)
  requested : float;  (** requested runtime R >= T, seconds *)
  user : int;  (** submitting user (0 when unknown); used by the
                   fairshare extension and carried through SWF *)
}

val v :
  id:int -> submit:float -> nodes:int -> runtime:float -> requested:float -> t
(** Smart constructor; validates that [submit], [runtime] and
    [requested] are finite, [nodes >= 1], [runtime > 0],
    [requested >= runtime] and [submit >= 0].  [user] is 0; build
    with {!make} to give a real user.
    @raise Invalid_argument on violation. *)

val make :
  id:int -> submit:float -> nodes:int -> runtime:float -> requested:float ->
  user:int -> t
(** {!v} with the submitting user, validated with the rest, so one
    record is built.  @raise Invalid_argument also for [user < 0]. *)

val area : t -> float
(** [area j] is N x T, the processor-time demand of the job in
    node-seconds. *)

val compare_submit : t -> t -> int
(** Order by submission time, ties by id — the FCFS order. *)

val equal : t -> t -> bool

(** {1 Job classes}

    The paper partitions jobs two ways: eight node-size ranges for
    Table 3 and five coarser node classes crossed with runtime ranges
    for Table 4 and Figure 5. *)

val size_range8 : int -> int
(** [size_range8 n] maps a node count to the Table 3 range index:
    0:(1) 1:(2) 2:(3-4) 3:(5-8) 4:(9-16) 5:(17-32) 6:(33-64)
    7:(65-128). *)

val node_class5 : int -> int
(** [node_class5 n] maps a node count to the Table 4 class index:
    0:(1) 1:(2) 2:(3-8) 3:(9-32) 4:(33-128). *)

val node_class5_label : int -> string

val runtime_class5 : float -> int
(** [runtime_class5 t] maps an actual runtime to the Figure 5 range:
    0:(<=10m) 1:(10m-1h) 2:(1h-4h) 3:(4h-8h) 4:(>8h). *)

val runtime_class5_label : int -> string
