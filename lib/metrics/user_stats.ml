type entry = {
  mutable jobs : int;
  mutable demand : float;
  mutable wait_sum : float;
  mutable slowdown_sum : float;
}

type t = { table : (int, entry) Hashtbl.t; mutable total_demand : float }

let compute outcomes =
  let t = { table = Hashtbl.create 32; total_demand = 0.0 } in
  List.iter
    (fun (o : Outcome.t) ->
      let user = o.job.Workload.Job.user in
      if user > 0 then begin
        let entry =
          match Hashtbl.find_opt t.table user with
          | Some e -> e
          | None ->
              let e =
                { jobs = 0; demand = 0.0; wait_sum = 0.0; slowdown_sum = 0.0 }
              in
              Hashtbl.add t.table user e;
              e
        in
        entry.jobs <- entry.jobs + 1;
        entry.demand <- entry.demand +. Workload.Job.area o.job;
        entry.wait_sum <- entry.wait_sum +. Outcome.wait o;
        entry.slowdown_sum <- entry.slowdown_sum +. Outcome.bounded_slowdown o;
        t.total_demand <- t.total_demand +. Workload.Job.area o.job
      end)
    outcomes;
  t

let users t =
  Hashtbl.fold (fun user e acc -> (user, e.demand) :: acc) t.table []
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
  |> List.map fst

let find t user =
  match Hashtbl.find_opt t.table user with
  | Some e -> e
  | None -> raise Not_found

let job_count t ~user = (find t user).jobs

let demand_share t ~user =
  if t.total_demand <= 0.0 then 0.0 else (find t user).demand /. t.total_demand

let avg_wait t ~user =
  let e = find t user in
  if e.jobs = 0 then 0.0 else e.wait_sum /. float_of_int e.jobs

let avg_bounded_slowdown t ~user =
  let e = find t user in
  if e.jobs = 0 then 0.0 else e.slowdown_sum /. float_of_int e.jobs

let jain_index t =
  let values =
    Hashtbl.fold
      (fun _ e acc ->
        (if e.jobs = 0 then 0.0 else e.slowdown_sum /. float_of_int e.jobs)
        :: acc)
      t.table []
  in
  match values with
  | [] -> 0.0
  | _ ->
      let n = float_of_int (List.length values) in
      let sum = List.fold_left ( +. ) 0.0 values in
      let sum_sq = List.fold_left (fun acc v -> acc +. (v *. v)) 0.0 values in
      if sum_sq <= 0.0 then 1.0 else sum *. sum /. (n *. sum_sq)

let pp_top ~n fmt t =
  Format.fprintf fmt "%8s %6s %9s %10s %10s@." "user" "jobs" "demand%"
    "avgW(h)" "avgBsld";
  List.iteri
    (fun i user ->
      if i < n then
        Format.fprintf fmt "%8d %6d %9.1f %10.2f %10.1f@." user
          (job_count t ~user)
          (100.0 *. demand_share t ~user)
          (Simcore.Units.to_hours (avg_wait t ~user))
          (avg_bounded_slowdown t ~user))
    (users t);
  Format.fprintf fmt "Jain fairness index over per-user slowdowns: %.3f@."
    (jain_index t)
