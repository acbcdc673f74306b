type algorithm = Dfs | Lds | Lds_original | Dds

let algorithm_name = function
  | Dfs -> "dfs"
  | Lds -> "lds"
  | Lds_original -> "lds0"
  | Dds -> "dds"

type result = {
  best : Objective.t;
  best_order : int array;
  best_starts : float array;
  nodes_visited : int;
  leaves_evaluated : int;
  iterations : int;
  exhausted : bool;
  improvements : int;
  winner_iteration : int;
  winner_depth : int;
}

exception Budget_spent

type driver = {
  state : Search_state.t;
  n : int;
  budget : int;
  prune : bool;
  mutable enforce_budget : bool;
  mutable rule : algorithm;  (* whose admission rule the walk applies *)
  mutable forced : int;  (* DDS: choice-depth of the forced discrepancy *)
  mutable iteration : int;  (* discrepancy iteration being explored *)
  mutable best : Objective.t option;
  best_order : int array;
  best_starts : float array;
  mutable leaves : int;
  mutable improvements : int;
  mutable winner_iteration : int;
  mutable winner_depth : int;
}

let record_leaf d =
  let obj = Search_state.leaf_objective d.state in
  d.leaves <- d.leaves + 1;
  let better =
    match d.best with
    | None -> true
    | Some incumbent -> Objective.is_better ~candidate:obj ~incumbent
  in
  if better then begin
    d.best <- Some obj;
    for depth = 0 to d.n - 1 do
      d.best_order.(depth) <- Search_state.chosen d.state ~depth;
      d.best_starts.(depth) <- Search_state.start_at d.state ~depth
    done;
    d.improvements <- d.improvements + 1;
    d.winner_iteration <- d.iteration;
    d.winner_depth <- (if d.rule = Dds then d.forced else -1)
  end

let check_budget d =
  if d.enforce_budget && Search_state.nodes_visited d.state >= d.budget then
    raise Budget_spent

(* Branch-and-bound: a partial schedule is hopeless when its excess
   already exceeds the incumbent's, or ties it while even the best
   possible completion (the minimum per-job secondary contribution for
   each remaining job) cannot beat the incumbent's secondary sum. *)
let hopeless d ~depth =
  d.prune
  &&
  match d.best with
  | None -> false
  | Some best ->
      let partial = Search_state.partial d.state ~depth in
      let remaining = d.n - depth - 1 in
      if partial.Objective.excess > best.Objective.excess +. 1e-9 then true
      else if partial.Objective.excess < best.Objective.excess -. 1e-9 then
        false
      else
        partial.Objective.secondary_sum
        +. (float_of_int remaining
           *. Objective.min_contribution (Search_state.secondary d.state))
        >= best.Objective.secondary_sum -. 1e-9

(* Leaf visit: evaluate unless the bound prunes it.  Off the hot path
   (one leaf per [n] interior nodes). *)
let at_leaf d ~depth = if not (hopeless d ~depth) then record_leaf d

(* Discrepancies a path can still take strictly below [depth]: one per
   level with at least two children. *)
let below d depth =
  let k = d.n - 2 - depth in
  if k > 0 then k else 0

(* The admission rules.  A node at [depth] with [r] discrepancies left
   admits its heuristic child (rank 0) iff [heuristic_admitted], and
   its other children, one discrepancy each, iff [others_admitted]. *)
let heuristic_admitted d depth r =
  match d.rule with
  | Dfs | Lds_original -> true
  | Dds -> depth <> d.forced
  | Lds -> r <= below d depth

let others_admitted d depth r =
  match d.rule with
  | Dfs -> true
  | Dds -> depth <= d.forced
  | Lds -> 1 <= r && r <= below d depth + 1
  | Lds_original -> r >= 1

(* The one walk.  Children of a node are exactly the unused jobs, in
   increasing index order via {!Search_state.first_unused} /
   {!Search_state.next_unused}; the walk is stable across a visit
   because unplace restores the links it removed.  The admission rule
   is a match on [d.rule], not a function-valued argument: an indirect
   [caml_apply] per node would cost more than the test itself, and
   these recursions are the innermost loop of the whole reproduction.
   Nothing here allocates per node. *)
let rec visit d depth r =
  let job = Search_state.first_unused d.state in
  if heuristic_admitted d depth r then child d depth job r;
  if others_admitted d depth r then
    discrepancies d depth (Search_state.next_unused d.state job) (r - 1)

and discrepancies d depth job r =
  if job < d.n then begin
    child d depth job r;
    discrepancies d depth (Search_state.next_unused d.state job) r
  end

and child d depth job r =
  check_budget d;
  Search_state.place d.state ~depth ~job;
  if depth = d.n - 1 then at_leaf d ~depth
  else if not (hopeless d ~depth) then visit d (depth + 1) r;
  Search_state.unplace d.state ~depth

(* Iteration [i] of [algorithm].  Iteration 0 is the pure heuristic
   path for every algorithm: DDS forcing no discrepancy.  DDS iteration
   [i] forces its discrepancy at choice-depth [i - 1]; (original) LDS
   iteration [i] allows [i] discrepancies; DFS has one iteration after
   the heuristic path, the whole tree, which re-walks that path (its
   node count includes the repeat, as in any restart strategy). *)
let iterate d algorithm i =
  d.rule <- (if i = 0 then Dds else algorithm);
  d.forced <- i - 1;
  d.iteration <- i;
  visit d 0 i

let run ?(prune = false) algorithm ~budget state =
  let n = Search_state.job_count state in
  if n = 0 then invalid_arg "Search.run: no waiting jobs";
  let d =
    {
      state;
      n;
      budget;
      prune;
      enforce_budget = false;
      rule = Dds;
      forced = -1;
      iteration = 0;
      best = None;
      best_order = Array.make n (-1);
      best_starts = Array.make n 0.0;
      leaves = 0;
      improvements = 0;
      winner_iteration = 0;
      winner_depth = -1;
    }
  in
  (* Iteration 0 ignores the budget so the policy always has a
     complete schedule to fall back on. *)
  iterate d algorithm 0;
  d.enforce_budget <- true;
  let last = if algorithm = Dfs then 1 else n - 1 in
  let completed = ref 0 in
  let exhausted =
    try
      for i = 1 to last do
        iterate d algorithm i;
        completed := i
      done;
      true
    with Budget_spent ->
      Search_state.reset state;
      false
  in
  match d.best with
  | None -> assert false (* iteration 0 always records a leaf *)
  | Some best ->
      {
        best;
        best_order = d.best_order;
        best_starts = d.best_starts;
        nodes_visited = Search_state.nodes_visited state;
        leaves_evaluated = d.leaves;
        iterations = (if algorithm = Dfs then 1 else !completed + 1);
        exhausted;
        improvements = d.improvements;
        winner_iteration = d.winner_iteration;
        winner_depth = d.winner_depth;
      }
