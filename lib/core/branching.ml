type t = Fcfs | Lxf

let name = function Fcfs -> "fcfs" | Lxf -> "lxf"

let order t ~now ~r_star waiting =
  let priority =
    match t with Fcfs -> Sched.Priority.fcfs | Lxf -> Sched.Priority.lxf
  in
  Array.of_list (Sched.Priority.order priority ~now ~r_star waiting)
