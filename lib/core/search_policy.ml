type config = {
  algorithm : Search.algorithm;
  heuristic : Sched.Priority.t;
  bound : Bound.t;
  budget : int;
  prune : bool;
  local_search : bool;
  fairshare : float option;
  goal : Objective.secondary;
}

let v ?(prune = false) ?(local_search = false) ?fairshare ~algorithm ~heuristic
    ~bound ~budget () =
  if budget < 1 then invalid_arg "Search_policy.v: budget must be >= 1";
  { algorithm; heuristic; bound; budget; prune; local_search; fairshare;
    goal = Objective.Bounded_slowdown }

let dds_lxf_dynb ~budget =
  v ~algorithm:Search.Dds ~heuristic:Sched.Priority.lxf ~bound:Bound.dynamic
    ~budget ()

let pp_budget budget =
  if budget mod 1000 = 0 then Printf.sprintf "%dK" (budget / 1000)
  else string_of_int budget

let name config =
  Printf.sprintf "%s/%s/%s(L=%s)%s%s%s%s"
    (String.uppercase_ascii (Search.algorithm_name config.algorithm))
    config.heuristic.Sched.Priority.name
    (Bound.name config.bound) (pp_budget config.budget)
    (if config.prune then "+bnb" else "")
    (if config.local_search then "+ls" else "")
    (match config.fairshare with
    | None -> ""
    | Some penalty -> Printf.sprintf "+fair(%g)" penalty)
    (match config.goal with
    | Objective.Bounded_slowdown -> ""
    | Objective.Avg_wait -> "@goal=avgW")

type stats = { total_nodes : int }

let state_of ?usage config (ctx : Sched.Policy.context) =
  let profile = Sched.Policy.profile_of ctx in
  let jobs =
    Array.of_list
      (Sched.Priority.order config.heuristic ~now:ctx.now ~r_star:ctx.r_star
         ctx.waiting)
  in
  let durations = Array.map ctx.r_star jobs in
  let thresholds =
    Bound.thresholds config.bound ~now:ctx.now ~r_star:ctx.r_star jobs
  in
  (match (config.fairshare, usage) with
  | Some penalty, Some tracker ->
      Array.iteri
        (fun i (j : Workload.Job.t) ->
          thresholds.(i) <-
            thresholds.(i)
            *. Fairshare.threshold_factor tracker ~now:ctx.now ~penalty
                 j.user)
        jobs
  | _ -> ());
  Search_state.create ~secondary:config.goal ~now:ctx.now ~profile ~jobs
    ~durations ~thresholds ()

let search config state =
  let result =
    Search.run ~prune:config.prune config.algorithm ~budget:config.budget
      state
  in
  if config.local_search then
    Local_search.improve ~budget:(config.budget / 4) state result
  else result

(* The decision's effort, local-search nodes included, written once
   from the result the policy acts on. *)
let write_probe (p : Simcore.Telemetry.Probe.t) ~budget (r : Search.result) =
  p.nodes <- r.nodes_visited;
  p.leaves <- r.leaves_evaluated;
  p.iterations <- r.iterations;
  p.budget <- budget;
  p.exhausted <- r.exhausted;
  p.improvements <- r.improvements;
  p.winner_iteration <- r.winner_iteration;
  p.winner_depth <- r.winner_depth

let policy config =
  let total_nodes = ref 0 in
  (* One preallocated probe per policy instance, overwritten at every
     decision; the engine reads it after [decide] for the decision log
     and the [schedsim_search_*] metrics. *)
  let probe = Simcore.Telemetry.Probe.create () in
  let usage =
    match config.fairshare with
    | None -> None
    | Some _ -> Some (Fairshare.create ())
  in
  let decide (ctx : Sched.Policy.context) =
    match ctx.waiting with
    | [] ->
        (* leave no stale effort behind for the engine to read *)
        Simcore.Telemetry.Probe.reset probe;
        []
    | _ :: _ ->
        let state = state_of ?usage config ctx in
        let result = search config state in
        write_probe probe ~budget:config.budget result;
        total_nodes := !total_nodes + result.Search.nodes_visited;
        let started =
          Search_state.start_now_set state ~order:result.Search.best_order
            ~starts:result.Search.best_starts
        in
        (match usage with
        | None -> ()
        | Some tracker ->
            List.iter
              (fun (j : Workload.Job.t) ->
                Fairshare.record_start tracker ~now:ctx.now ~nodes:j.nodes
                  ~duration:(ctx.r_star j) ~user:j.user)
              started);
        started
  in
  let stats () = { total_nodes = !total_nodes } in
  ( Sched.Policy.with_probe (Sched.Policy.make ~name:(name config) ~decide)
      probe,
    stats )
