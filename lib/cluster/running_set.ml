type entry = {
  job : Workload.Job.t;
  finish : float;
  est_finish : float;
}

type t = {
  machine : Machine.t;
  mutable busy : int;
  (* The running jobs, held twice over the first [len] slots of arrays
     of one capacity.  [ends], [widths] and [ids] are the estimated
     releases in ascending [est_finish] order, which [profile] reads in
     one pass; [by_finish] is the departure order, ascending true
     [finish].  [add] inserts into both by shifting, so ties keep
     insertion (start) order; a departure closes the gap with a
     blit. *)
  mutable ends : float array;
  mutable widths : int array;
  mutable ids : int array;
  mutable by_finish : entry array;
  mutable len : int;
}

let create ~machine =
  {
    machine;
    busy = 0;
    ends = [||];
    widths = [||];
    ids = [||];
    by_finish = [||];
    len = 0;
  }

let machine t = t.machine
let busy_nodes t = t.busy
let free_nodes t = t.machine.Machine.nodes - t.busy
let count t = t.len

(* [filler] only pads the new [by_finish] slots past [len]. *)
let grow t filler =
  let cap = max 32 (2 * t.len) in
  let ends = Array.make cap 0.0 in
  let widths = Array.make cap 0 in
  let ids = Array.make cap 0 in
  let by_finish = Array.make cap filler in
  Array.blit t.ends 0 ends 0 t.len;
  Array.blit t.widths 0 widths 0 t.len;
  Array.blit t.ids 0 ids 0 t.len;
  Array.blit t.by_finish 0 by_finish 0 t.len;
  t.ends <- ends;
  t.widths <- widths;
  t.ids <- ids;
  t.by_finish <- by_finish

let add t entry =
  let id = entry.job.Workload.Job.id in
  for k = 0 to t.len - 1 do
    if t.ids.(k) = id then
      invalid_arg
        (Printf.sprintf "Running_set.add: job %d already running" id)
  done;
  if entry.job.Workload.Job.nodes > free_nodes t then
    invalid_arg
      (Printf.sprintf "Running_set.add: job %d oversubscribes machine" id);
  t.busy <- t.busy + entry.job.Workload.Job.nodes;
  if t.len = Array.length t.ends then grow t entry;
  (* one insertion-sort step per order: shift later ends right *)
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
  let k = ref t.len in
  while !k > 0 && t.by_finish.(!k - 1).finish > entry.finish do
    t.by_finish.(!k) <- t.by_finish.(!k - 1);
    decr k
  done;
  t.by_finish.(!k) <- entry;
  t.len <- t.len + 1

let next_finish t = if t.len = 0 then infinity else t.by_finish.(0).finish

let pop_finished t =
  if t.len = 0 then invalid_arg "Running_set.pop_finished: nothing running";
  let entry = t.by_finish.(0) in
  let id = entry.job.Workload.Job.id in
  Array.blit t.by_finish 1 t.by_finish 0 (t.len - 1);
  let k = ref 0 in
  while t.ids.(!k) <> id do
    incr k
  done;
  let k = !k and rest = t.len - !k - 1 in
  Array.blit t.ends (k + 1) t.ends k rest;
  Array.blit t.widths (k + 1) t.widths k rest;
  Array.blit t.ids (k + 1) t.ids k rest;
  t.len <- t.len - 1;
  t.busy <- t.busy - entry.job.Workload.Job.nodes;
  entry

(* A job that outlives its estimate (possible only with an
   undershooting predictor, R*=pred) still holds its nodes: report its
   release as [overdue_grace] after [now].  Every policy's start-now
   test compares a start with [now] exactly, so any positive grace keeps
   such nodes out of a start now; without one a policy would start a job
   on nodes that are still physically occupied and the engine would
   reject the start as oversubscription.  The value 1 ms is kept
   because the R*=pred schedules, where overdue jobs occur, depend on
   it. *)
let overdue_grace = 1e-3

let releases t ~now =
  let acc = ref [] in
  for k = t.len - 1 downto 0 do
    let e = t.by_finish.(k) in
    let finish = Float.max e.est_finish (now +. overdue_grace) in
    acc := (finish, e.job.Workload.Job.nodes) :: !acc
  done;
  !acc

let profile t ~now =
  Profile.of_sorted_releases ~now ~capacity:t.machine.Machine.nodes
    ~not_before:(now +. overdue_grace) t.ends t.widths t.len
