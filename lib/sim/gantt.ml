let finish = Metrics.Outcome.finish

(* Both charts bucket time into [columns] columns; the jobs chart shows
   at most [max_jobs] rows. *)
let columns = 72
let max_jobs = 40

let time_bounds outcomes =
  List.fold_left
    (fun (lo, hi) (o : Metrics.Outcome.t) ->
      (Float.min lo o.job.Workload.Job.submit, Float.max hi (finish o)))
    (Float.infinity, Float.neg_infinity)
    outcomes

let jobs_chart fmt outcomes =
  match outcomes with
  | [] -> Format.fprintf fmt "(no jobs)@."
  | _ ->
      let lo, hi = time_bounds outcomes in
      let span = Float.max 1e-9 (hi -. lo) in
      let col time =
        Stdlib.min (columns - 1)
          (Stdlib.max 0
             (int_of_float (float_of_int columns *. (time -. lo) /. span)))
      in
      let sorted =
        List.stable_sort
          (fun (a : Metrics.Outcome.t) (b : Metrics.Outcome.t) ->
            Workload.Job.compare_submit a.job b.job)
          outcomes
      in
      Format.fprintf fmt "time %a .. %a (%d columns; '.'=waiting '#'=running)@."
        Simcore.Units.pp_duration lo Simcore.Units.pp_duration hi columns;
      List.iteri
        (fun i (o : Metrics.Outcome.t) ->
          if i < max_jobs then begin
            let row = Bytes.make columns ' ' in
            let submit_col = col o.job.Workload.Job.submit in
            let start_col = col o.start in
            let finish_col = Stdlib.max (col (finish o)) (start_col + 1) in
            for c = submit_col to start_col - 1 do
              Bytes.set row c '.'
            done;
            for c = start_col to Stdlib.min (columns - 1) (finish_col - 1) do
              Bytes.set row c '#'
            done;
            Format.fprintf fmt "%4d %3dn |%s|@." o.job.Workload.Job.id
              o.job.Workload.Job.nodes (Bytes.to_string row)
          end)
        sorted;
      let n = List.length sorted in
      if n > max_jobs then
        Format.fprintf fmt "... (%d more jobs not shown)@." (n - max_jobs)

let utilization_chart ~capacity fmt outcomes =
  match outcomes with
  | [] -> Format.fprintf fmt "(no jobs)@."
  | _ ->
      let lo, hi = time_bounds outcomes in
      let span = Float.max 1e-9 (hi -. lo) in
      let bucket = span /. float_of_int columns in
      let busy = Array.make columns 0.0 in
      List.iter
        (fun (o : Metrics.Outcome.t) ->
          List.iteri
            (fun c () ->
              let b_lo = lo +. (float_of_int c *. bucket) in
              let b_hi = b_lo +. bucket in
              let overlap =
                Float.min b_hi (finish o) -. Float.max b_lo o.start
              in
              if overlap > 0.0 then
                busy.(c) <-
                  busy.(c)
                  +. (overlap /. bucket
                     *. float_of_int o.job.Workload.Job.nodes))
            (List.init columns (fun _ -> ())))
        outcomes;
      Format.fprintf fmt
        "utilization over time %a .. %a (0-9 = fraction of %d nodes busy)@."
        Simcore.Units.pp_duration lo Simcore.Units.pp_duration hi capacity;
      Format.fprintf fmt "|";
      Array.iter
        (fun b ->
          let frac = Float.min 1.0 (b /. float_of_int capacity) in
          let digit = Stdlib.min 9 (int_of_float (frac *. 10.0)) in
          Format.fprintf fmt "%d" digit)
        busy;
      Format.fprintf fmt "|@."
