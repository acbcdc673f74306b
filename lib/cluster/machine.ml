type t = { nodes : int }

let v ~nodes =
  if nodes < 1 then invalid_arg "Machine.v: nodes must be >= 1";
  { nodes }

let titan = v ~nodes:Workload.Month_profile.capacity
let fits t (j : Workload.Job.t) = j.nodes <= t.nodes
