type context = {
  now : float;
  waiting : Workload.Job.t list;
  running : Cluster.Running_set.t;
  r_star : Workload.Job.t -> float;
}

type t = {
  name : string;
  decide : context -> Workload.Job.t list;
  probe : Simcore.Telemetry.Probe.t option;
}

let make ~name ~decide = { name; decide; probe = None }
let with_probe t probe = { t with probe = Some probe }

let profile_of ctx = Cluster.Running_set.profile ctx.running ~now:ctx.now

let planned_duration (r : float) = if r > 1.0 then r else 1.0
