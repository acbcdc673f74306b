let budgets = [ 60; 125; 250; 500; 1000; 2000; 4000; 8000 ]
let seeds = List.init 20 (fun i -> 500 + i)

let algorithms =
  [
    (Core.Search.Dds, "DDS");
    (Core.Search.Lds, "LDS");
    (Core.Search.Lds_original, "LDS0");
    (Core.Search.Dfs, "DFS");
  ]

let run fmt =
  Common.section fmt ~id:"anytime"
    "Anytime search quality on 30-job decision points (mean over 20 states)";
  (* mean objective of the heuristic path alone, as the baseline *)
  let heuristic_excess =
    Simcore.Stats.mean
      (Array.of_list
         (Common.par_map
            (fun seed ->
              let state = Overhead.synthetic_state ~seed () in
              let r = Core.Search.run Core.Search.Dds ~budget:1 state in
              Simcore.Units.to_hours r.Core.Search.best.Core.Objective.excess)
            seeds))
  in
  Format.fprintf fmt
    "heuristic path alone: mean total excess %.1f h (budget too small to improve)@."
    heuristic_excess;
  Format.fprintf fmt "@.mean total excess (hours) of best schedule found:@.";
  Format.fprintf fmt "%-8s" "algo";
  List.iter (fun b -> Format.fprintf fmt " %8d" b) budgets;
  Format.pp_print_newline fmt ();
  let excess_of (algo, budget, seed) =
    let state = Overhead.synthetic_state ~seed () in
    let r = Core.Search.run algo ~budget state in
    Simcore.Units.to_hours r.Core.Search.best.Core.Objective.excess
  in
  (* every (algo, budget, seed) search is independent: one flat plan
     over the pool, means folded per (algo, budget) cell afterwards *)
  let grid =
    List.concat_map
      (fun (algo, _) ->
        List.map (fun budget -> (algo, budget)) budgets)
      algorithms
  in
  let cells =
    Common.par_map
      (fun (algo, budget) ->
        Simcore.Stats.mean
          (Array.of_list
             (List.map (fun seed -> excess_of (algo, budget, seed)) seeds)))
      grid
  in
  let value =
    let table = List.combine grid cells in
    fun algo budget -> List.assoc (algo, budget) table
  in
  List.iter
    (fun (algo, name) ->
      Format.fprintf fmt "%-8s" name;
      List.iter
        (fun budget -> Format.fprintf fmt " %8.1f" (value algo budget))
        budgets;
      Format.pp_print_newline fmt ())
    algorithms;
  Format.fprintf fmt
    "@.(lower is better; every algorithm starts from the same heuristic path,@.\
    \ so differences are purely in which discrepancies each explores first.@.\
    \ Note: on isolated decision points LDS's deep, local swaps often pay@.\
    \ off sooner, yet end-to-end DDS yields lower total excessive wait --@.\
    \ see fig7 -- because closed-loop scheduling compounds decisions; this@.\
    \ is exactly the paper's 'heuristic dominates algorithm' observation.)@."
