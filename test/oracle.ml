let all_paths algorithm ~n =
  let iterations =
    match algorithm with
    | Core.Search.Dfs -> 1
    | Core.Search.Lds | Core.Search.Lds_original | Core.Search.Dds -> n
  in
  List.concat_map
    (fun iteration -> Core.Tree_enum.paths_in_iteration algorithm ~n ~iteration)
    (List.init iterations Fun.id)

let enumerate_best state =
  let n = Core.Search_state.job_count state in
  if n < 1 || n > 8 then
    invalid_arg (Printf.sprintf "Oracle.enumerate_best: %d jobs" n);
  Core.Search_state.reset state;
  let best = ref None in
  List.iter
    (fun path ->
      List.iteri
        (fun depth job -> Core.Search_state.place state ~depth ~job)
        path;
      let obj = Core.Search_state.leaf_objective state in
      (match !best with
      | None -> best := Some obj
      | Some incumbent ->
          if Core.Objective.is_better ~candidate:obj ~incumbent then
            best := Some obj);
      Core.Search_state.reset state)
    (all_paths Core.Search.Dfs ~n);
  Option.get !best

let compare_priority (p : Sched.Priority.t) ~now ~r_star a b =
  match p.key with
  | Submit_order -> Workload.Job.compare_submit a b
  | Keyed key ->
      let c = Float.compare (key ~now ~r_star b) (key ~now ~r_star a) in
      if c <> 0 then c else Workload.Job.compare_submit a b

type reference_plan = {
  start_now : Workload.Job.t list;
  reserved : (Workload.Job.t * float) list;
}

(* Busy intervals [(from, until, nodes)], half-open [from, until). *)

let first k =
  let left = ref k in
  fun _ ->
    let grant = !left > 0 in
    if grant then decr left;
    grant

let reference_backfill ~reserve ~priority (ctx : Sched.Policy.context) =
  let capacity =
    (Cluster.Running_set.machine ctx.running).Cluster.Machine.nodes
  in
  let now = ctx.now in
  let intervals =
    ref
      (List.map
         (fun (release, nodes) -> (now, release, nodes))
         (Cluster.Running_set.releases ctx.running ~now))
  in
  let used_at t =
    List.fold_left
      (fun acc (from, until, nodes) ->
        if from <= t && t < until then acc + nodes else acc)
      0 !intervals
  in
  (* Usage is a step function changing only at interval boundaries, so
     checking [at] plus every boundary inside the span is exhaustive. *)
  let fits ~at ~duration ~nodes =
    let until = at +. duration in
    used_at at + nodes <= capacity
    && List.for_all
         (fun (from, til, _) ->
           (not (at < from && from < until) || used_at from + nodes <= capacity)
           && (not (at < til && til < until) || used_at til + nodes <= capacity))
         !intervals
  in
  let earliest_start ~duration ~nodes =
    let candidates =
      now
      :: List.concat_map (fun (from, until, _) -> [ from; until ]) !intervals
      |> List.filter (fun t -> t >= now)
      |> List.sort_uniq Float.compare
    in
    List.find (fun t -> fits ~at:t ~duration ~nodes) candidates
  in
  let ordered =
    List.stable_sort
      (compare_priority priority ~now ~r_star:ctx.r_star)
      ctx.waiting
  in
  let start_now = ref [] in
  let reserved = ref [] in
  List.iter
    (fun (j : Workload.Job.t) ->
      let duration = Float.max (ctx.r_star j) 1.0 in
      if fits ~at:now ~duration ~nodes:j.nodes then begin
        intervals := (now, now +. duration, j.nodes) :: !intervals;
        start_now := j :: !start_now
      end
      else if reserve j then begin
        let s = earliest_start ~duration ~nodes:j.nodes in
        intervals := (s, s +. duration, j.nodes) :: !intervals;
        reserved := (j, s) :: !reserved
      end)
    ordered;
  { start_now = List.rev !start_now; reserved = List.rev !reserved }
