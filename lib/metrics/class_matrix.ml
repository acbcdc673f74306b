type t = {
  totals : float array array;  (* total wait seconds *)
  counts : int array array;
}

let compute outcomes =
  let totals = Array.make_matrix 5 5 0.0 in
  let counts = Array.make_matrix 5 5 0 in
  List.iter
    (fun (o : Outcome.t) ->
      let r = Workload.Job.runtime_class5 o.job.Workload.Job.runtime in
      let c = Workload.Job.node_class5 o.job.Workload.Job.nodes in
      totals.(r).(c) <- totals.(r).(c) +. Outcome.wait o;
      counts.(r).(c) <- counts.(r).(c) + 1)
    outcomes;
  { totals; counts }

let average_wait t ~runtime_class ~node_class =
  let n = t.counts.(runtime_class).(node_class) in
  if n = 0 then None
  else Some (t.totals.(runtime_class).(node_class) /. float_of_int n)

let pp fmt t =
  Format.fprintf fmt "%-8s" "T \\ N";
  for c = 0 to 4 do
    Format.fprintf fmt " %8s" (Workload.Job.node_class5_label c)
  done;
  Format.pp_print_newline fmt ();
  for r = 0 to 4 do
    Format.fprintf fmt "%-8s" (Workload.Job.runtime_class5_label r);
    for c = 0 to 4 do
      match average_wait t ~runtime_class:r ~node_class:c with
      | None -> Format.fprintf fmt " %8s" "-"
      | Some w -> Format.fprintf fmt " %8.1f" (Simcore.Units.to_hours w)
    done;
    Format.pp_print_newline fmt ()
  done
