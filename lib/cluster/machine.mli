(** Static description of the parallel machine.

    The NCSA IA-64 cluster is modelled as in the paper: a pool of
    identical nodes, with the node as the smallest allocation unit and
    space sharing only (a node runs one job at a time). *)

type t = { nodes : int }

val v : nodes:int -> t
(** @raise Invalid_argument if [nodes < 1]. *)

val titan : t
(** The paper's machine: {!Workload.Month_profile.capacity} (128)
    nodes (Table 2). *)

val fits : t -> Workload.Job.t -> bool
(** Whether the job can ever run on this machine. *)
