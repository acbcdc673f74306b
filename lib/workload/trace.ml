type t = {
  jobs : Job.t array;
  measure_start : float;
  measure_end : float;
}

let in_submit_order (arr : Job.t array) =
  let rec from i =
    i >= Array.length arr
    || (Job.compare_submit arr.(i - 1) arr.(i) <= 0 && from (i + 1))
  in
  from 1

(* Ids that strictly increase along the array are unique; only traces
   whose ids are out of submit order pay for sorting a copy. *)
let check_unique (arr : Job.t array) =
  let rec increasing i =
    i >= Array.length arr || (arr.(i - 1).id < arr.(i).id && increasing (i + 1))
  in
  if not (increasing 1) then begin
    let ids = Array.map (fun (j : Job.t) -> j.id) arr in
    Array.sort Int.compare ids;
    for i = 1 to Array.length ids - 1 do
      if ids.(i - 1) = ids.(i) then
        invalid_arg (Printf.sprintf "Trace.v: duplicate job id %d" ids.(i))
    done
  end

let of_array ?measure_start ?measure_end arr =
  if not (in_submit_order arr) then Array.sort Job.compare_submit arr;
  check_unique arr;
  let default_start =
    if Array.length arr = 0 then 0.0 else arr.(0).Job.submit
  in
  let default_end =
    (* strictly beyond the last submission so the final job is inside
       the half-open window (Float.succ, not an absolute epsilon, which
       would be absorbed for large times) *)
    if Array.length arr = 0 then 0.0
    else Float.succ arr.(Array.length arr - 1).Job.submit
  in
  {
    jobs = arr;
    measure_start = Option.value measure_start ~default:default_start;
    measure_end = Option.value measure_end ~default:default_end;
  }

let v ?measure_start ?measure_end jobs =
  of_array ?measure_start ?measure_end (Array.of_list jobs)

let jobs t = t.jobs
let length t = Array.length t.jobs
let measure_start t = t.measure_start
let measure_end t = t.measure_end

let in_window t (j : Job.t) =
  j.submit >= t.measure_start && j.submit < t.measure_end

let measured t = List.filter (in_window t) (Array.to_list t.jobs)

let total_demand t =
  Array.fold_left (fun acc j -> acc +. Job.area j) 0.0 t.jobs

let load ~capacity ~window demand =
  if window <= 0.0 then 0.0 else demand /. (float_of_int capacity *. window)

(* The offered load on columns, so that the generator can use it before
   any record exists. *)
let load_squeeze ~capacity ~target ~measure_start ~measure_end ~submit
    ~nodes ~runtime =
  if target <= 0.0 then invalid_arg "Trace.scale_load: target <= 0";
  let demand = ref 0.0 in
  for i = 0 to Array.length submit - 1 do
    if submit.(i) >= measure_start && submit.(i) < measure_end then
      demand := !demand +. (float_of_int nodes.(i) *. runtime.(i))
  done;
  let current = load ~capacity ~window:(measure_end -. measure_start) !demand in
  if current <= 0.0 then invalid_arg "Trace.scale_load: trace has no load";
  (* Compressing all submit times by [factor < 1] multiplies the load by
     [1/factor]; the window shrinks by the same factor. *)
  let factor = current /. target in
  let origin = if Array.length submit = 0 then 0.0 else submit.(0) in
  fun time -> origin +. ((time -. origin) *. factor)

let scale_load t ~capacity ~target =
  let squeeze =
    load_squeeze ~capacity ~target ~measure_start:t.measure_start
      ~measure_end:t.measure_end
      ~submit:(Array.map (fun (j : Job.t) -> j.submit) t.jobs)
      ~nodes:(Array.map (fun (j : Job.t) -> j.nodes) t.jobs)
      ~runtime:(Array.map (fun (j : Job.t) -> j.runtime) t.jobs)
  in
  (* [squeeze] is monotone, so the order check normally passes; only
     submits it rounds into ties between jobs whose ids run against
     submit order make [of_array] sort. *)
  of_array
    (Array.map
       (fun (j : Job.t) -> { j with Job.submit = squeeze j.submit })
       t.jobs)
    ~measure_start:(squeeze t.measure_start)
    ~measure_end:(squeeze t.measure_end)

let concat_stats t =
  Printf.sprintf "%d jobs (%d measured), window [%.1fd, %.1fd), demand %.3e node-s"
    (length t)
    (List.length (measured t))
    (Simcore.Units.to_days t.measure_start)
    (Simcore.Units.to_days t.measure_end)
    (total_demand t)
