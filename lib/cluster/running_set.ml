type entry = {
  job : Workload.Job.t;
  start : float;
  finish : float;
  est_finish : float;
}

type t = {
  machine : Machine.t;
  table : (int, entry) Hashtbl.t;
  mutable busy : int;
  (* The running jobs' estimated releases in ascending [est_finish]
     order, as parallel arrays ([ends], [widths], [ids]) over the
     first [len] slots: [add] inserts by shifting, [remove] closes the
     gap with a blit, and [profile] reads them in one pass.  Ties keep
     insertion order. *)
  mutable ends : float array;
  mutable widths : int array;
  mutable ids : int array;
  mutable len : int;
}

let create ~machine =
  {
    machine;
    table = Hashtbl.create 64;
    busy = 0;
    ends = Array.make 32 0.0;
    widths = Array.make 32 0;
    ids = Array.make 32 0;
    len = 0;
  }

let machine t = t.machine
let busy_nodes t = t.busy
let free_nodes t = t.machine.Machine.nodes - t.busy
let count t = Hashtbl.length t.table
let is_empty t = count t = 0

let grow t =
  let cap = 2 * Array.length t.ends in
  let ends = Array.make cap 0.0 in
  let widths = Array.make cap 0 in
  let ids = Array.make cap 0 in
  Array.blit t.ends 0 ends 0 t.len;
  Array.blit t.widths 0 widths 0 t.len;
  Array.blit t.ids 0 ids 0 t.len;
  t.ends <- ends;
  t.widths <- widths;
  t.ids <- ids

let add t entry =
  let id = entry.job.Workload.Job.id in
  if Hashtbl.mem t.table id then
    invalid_arg (Printf.sprintf "Running_set.add: job %d already running" id);
  if entry.job.Workload.Job.nodes > free_nodes t then
    invalid_arg
      (Printf.sprintf "Running_set.add: job %d oversubscribes machine" id);
  Hashtbl.add t.table id entry;
  t.busy <- t.busy + entry.job.Workload.Job.nodes;
  if t.len = Array.length t.ends then grow t;
  (* one insertion-sort step: shift later releases right *)
  let k = ref t.len in
  while !k > 0 && t.ends.(!k - 1) > entry.est_finish do
    t.ends.(!k) <- t.ends.(!k - 1);
    t.widths.(!k) <- t.widths.(!k - 1);
    t.ids.(!k) <- t.ids.(!k - 1);
    decr k
  done;
  t.ends.(!k) <- entry.est_finish;
  t.widths.(!k) <- entry.job.Workload.Job.nodes;
  t.ids.(!k) <- id;
  t.len <- t.len + 1

let remove t ~id =
  match Hashtbl.find_opt t.table id with
  | None -> raise Not_found
  | Some entry ->
      Hashtbl.remove t.table id;
      t.busy <- t.busy - entry.job.Workload.Job.nodes;
      let k = ref 0 in
      while t.ids.(!k) <> id do
        incr k
      done;
      let k = !k and rest = t.len - !k - 1 in
      Array.blit t.ends (k + 1) t.ends k rest;
      Array.blit t.widths (k + 1) t.widths k rest;
      Array.blit t.ids (k + 1) t.ids k rest;
      t.len <- t.len - 1;
      entry

(* A job that outlives its estimate (possible only with an
   undershooting predictor, R*=pred) still holds its nodes: report its
   release as [overdue_grace] after [now].  The grace must be strictly
   larger than any start-now tolerance a policy applies (the search's
   [Search_state.start_now_set] uses 1e-6 s), or a policy will try to
   start a job on nodes that are still physically occupied and the
   engine will reject the start as oversubscription. *)
let overdue_grace = 1e-3

let releases t ~now =
  Hashtbl.fold
    (fun _ e acc ->
      let finish = Float.max e.est_finish (now +. overdue_grace) in
      (finish, e.job.Workload.Job.nodes) :: acc)
    t.table []

let profile t ~now =
  Profile.of_sorted_releases ~now ~capacity:t.machine.Machine.nodes
    ~not_before:(now +. overdue_grace) t.ends t.widths t.len
