let csv_header =
  "id,user,nodes,submit,start,finish,runtime,requested,wait,bounded_slowdown"

let csv_row (o : Outcome.t) =
  let j = o.job in
  Printf.sprintf "%d,%d,%d,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f,%.4f"
    j.Workload.Job.id j.Workload.Job.user j.Workload.Job.nodes
    j.Workload.Job.submit o.start (Outcome.finish o) j.Workload.Job.runtime
    j.Workload.Job.requested (Outcome.wait o) (Outcome.bounded_slowdown o)

let to_csv path outcomes =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (csv_header ^ "\n");
      List.iter
        (fun o -> output_string oc (csv_row o ^ "\n"))
        (List.stable_sort
           (fun (a : Outcome.t) (b : Outcome.t) ->
             Workload.Job.compare_submit a.job b.job)
           outcomes))
