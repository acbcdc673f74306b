type t = {
  n_jobs : int;
  load : float;
  jobs8 : float array;
  demand8 : float array;
  short5 : float array;
  long5 : float array;
}

let of_trace ~capacity trace =
  let measured = Trace.measured trace in
  let n = List.length measured in
  let jobs8 = Array.make 8 0.0 in
  let demand8 = Array.make 8 0.0 in
  let short5 = Array.make 5 0.0 in
  let long5 = Array.make 5 0.0 in
  let total_area = ref 0.0 in
  List.iter
    (fun (j : Job.t) ->
      let r = Job.size_range8 j.nodes in
      let c = Job.node_class5 j.nodes in
      jobs8.(r) <- jobs8.(r) +. 1.0;
      demand8.(r) <- demand8.(r) +. Job.area j;
      total_area := !total_area +. Job.area j;
      if j.runtime <= Simcore.Units.hour then short5.(c) <- short5.(c) +. 1.0;
      if j.runtime > Simcore.Units.hours 5.0 then long5.(c) <- long5.(c) +. 1.0)
    measured;
  let to_pct total arr =
    if total <= 0.0 then arr
    else Array.map (fun v -> 100.0 *. v /. total) arr
  in
  let window = Trace.measure_end trace -. Trace.measure_start trace in
  {
    n_jobs = n;
    load = Trace.load ~capacity ~window !total_area;
    jobs8 = to_pct (float_of_int n) jobs8;
    demand8 = to_pct !total_area demand8;
    short5 = to_pct (float_of_int n) short5;
    long5 = to_pct (float_of_int n) long5;
  }

let pp_pcts fmt arr =
  Array.iter (fun v -> Format.fprintf fmt " %5.1f" v) arr

let pp_table3_row fmt ~label t =
  Format.fprintf fmt "%-6s #jobs %5d  |%a@\n" label t.n_jobs pp_pcts t.jobs8;
  Format.fprintf fmt "%-6s load  %4.0f%%  |%a" label (100.0 *. t.load) pp_pcts
    t.demand8

let pp_table4_row fmt ~label t =
  Format.fprintf fmt "%-6s T<=1h  all %5.1f |%a@\n" label
    (Array.fold_left ( +. ) 0.0 t.short5)
    pp_pcts t.short5;
  Format.fprintf fmt "%-6s T>5h   all %5.1f |%a" label
    (Array.fold_left ( +. ) 0.0 t.long5)
    pp_pcts t.long5
