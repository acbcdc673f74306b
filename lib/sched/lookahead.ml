(* Select, among [candidates] with node counts <= [capacity], a subset
   maximizing total nodes with sum <= capacity (0/1 knapsack where
   weight = value = nodes).  Ties resolve toward earlier-submitted jobs
   because candidates are scanned in queue order and an item is kept
   only when it reaches a previously unreachable total. *)
let knapsack ~capacity candidates =
  let best : Workload.Job.t list option array = Array.make (capacity + 1) None in
  best.(0) <- Some [];
  List.iter
    (fun (j : Workload.Job.t) ->
      for c = capacity downto j.nodes do
        match (best.(c), best.(c - j.nodes)) with
        | None, Some set -> best.(c) <- Some (j :: set)
        | _ -> ()
      done)
    candidates;
  let rec first_filled c =
    if c <= 0 then []
    else match best.(c) with Some set -> set | None -> first_filled (c - 1)
  in
  List.sort Workload.Job.compare_submit (first_filled capacity)

let policy () =
  Policy.make ~name:"lookahead-backfill" ~decide:(fun ctx ->
      match ctx.Policy.waiting with
      | [] -> []
      | head :: rest ->
          let now = ctx.now and r_star = ctx.r_star in
          let profile = Policy.profile_of ctx in
          let start ~reserve jobs =
            (Backfill.pass profile ~now ~r_star ~reserve jobs).start_now
          in
          (* The head starts if it fits; otherwise it holds the one
             reservation, so the knapsack cannot delay it.  A head that
             starts leaves no job protected: unlike EASY, the first
             blocked job behind it gets no reservation. *)
          let head_now = start ~reserve:(fun _ -> true) [ head ] in
          let candidates =
            List.filter
              (fun (j : Workload.Job.t) ->
                Cluster.Profile.fits_at profile ~at:now ~nodes:j.nodes
                  ~duration:(Float.max (r_star j) 1.0))
              rest
          in
          let free_now = Cluster.Profile.free_at profile now in
          let selected = knapsack ~capacity:free_now candidates in
          (* Sequential re-validation: durations differ, so a set that
             fits at [now] may still collide later; start greedily and
             drop jobs that no longer fit. *)
          head_now @ start ~reserve:(fun _ -> false) selected)
