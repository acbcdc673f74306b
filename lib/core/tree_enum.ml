let remaining_in_order used n =
  List.filter (fun i -> not used.(i)) (List.init n Fun.id)

let discrepancies path =
  let n = List.length path in
  let used = Array.make n false in
  List.fold_left
    (fun count choice ->
      let heuristic_choice =
        match remaining_in_order used n with
        | first :: _ -> first
        | [] -> assert false
      in
      used.(choice) <- true;
      if choice = heuristic_choice then count else count + 1)
    0 path

let deepest_discrepancy path =
  let n = List.length path in
  let used = Array.make n false in
  let deepest = ref None in
  List.iteri
    (fun depth choice ->
      let heuristic_choice =
        match remaining_in_order used n with
        | first :: _ -> first
        | [] -> assert false
      in
      used.(choice) <- true;
      if choice <> heuristic_choice then deepest := Some depth)
    path;
  !deepest

(* Enumerate all paths in left-to-right (DFS) order, then filter by the
   iteration membership predicate.  Filtering preserves the visit order
   because both LDS and DDS explore each iteration left to right. *)
let all_paths_dfs n =
  let rec go used acc =
    match remaining_in_order used n with
    | [] -> [ List.rev acc ]
    | choices ->
        List.concat_map
          (fun c ->
            used.(c) <- true;
            let sub = go used (c :: acc) in
            used.(c) <- false;
            sub)
          choices
  in
  go (Array.make n false) []

let paths_in_iteration algorithm ~n ~iteration =
  let everything = all_paths_dfs n in
  match algorithm with
  | Search.Dfs -> if iteration = 0 then everything else []
  | Search.Lds ->
      List.filter (fun p -> discrepancies p = iteration) everything
  | Search.Lds_original ->
      List.filter (fun p -> discrepancies p <= iteration) everything
  | Search.Dds ->
      List.filter
        (fun p ->
          match deepest_discrepancy p with
          | None -> iteration = 0
          | Some d -> d = iteration - 1)
        everything

let path_count ~n =
  let rec fact k acc = if k <= 1 then acc else fact (k - 1) (acc *. float_of_int k) in
  fact n 1.0

let node_count ~n =
  (* sum_{k=1..n} n * (n-1) * ... * (n-k+1) *)
  let rec go k partial acc =
    if k > n then acc
    else
      let partial = partial *. float_of_int (n - k + 1) in
      go (k + 1) partial (acc +. partial)
  in
  go 1 1.0 0.0
