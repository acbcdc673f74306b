type t = { job : Workload.Job.t; start : float }

let finish t = t.start +. t.job.Workload.Job.runtime

let v ~job ~start =
  if start < job.Workload.Job.submit then
    invalid_arg "Outcome.v: started before submission";
  let t = { job; start } in
  if finish t <= start then invalid_arg "Outcome.v: finish <= start";
  t

let wait t = t.start -. t.job.Workload.Job.submit

(* 1 + wait / max(T, 1min): for T >= 1 min this is turnaround / T; for
   shorter jobs it degrades to 1 + wait-in-minutes, exactly the paper's
   convention. *)
let bounded_slowdown t =
  let floor_runtime = Float.max t.job.Workload.Job.runtime Simcore.Units.minute in
  1.0 +. (wait t /. floor_runtime)

let excess_wait t ~threshold = Float.max 0.0 (wait t -. threshold)
