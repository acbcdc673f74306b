(* Tests reproducing Figure 1 exactly: which paths LDS and DDS visit,
   in which order, and the tree-size table. *)

open Core

let paths algo ~n ~iteration = Tree_enum.paths_in_iteration algo ~n ~iteration

(* Discrepancies of a path, by definition: the positions where the
   chosen job is not the smallest-index job still unused. *)
let discrepancies path =
  let rec go unused = function
    | [] -> 0
    | job :: rest ->
        (if job = List.hd unused then 0 else 1)
        + go (List.filter (fun j -> j <> job) unused) rest
  in
  go (List.sort compare path) path

(* The paper labels jobs 1..4; our indices are 0-based. *)
let labelled = List.map (List.map (fun i -> i + 1))

let test_iteration0 () =
  List.iter
    (fun algo ->
      Alcotest.(check (list (list int)))
        "iteration 0 is the heuristic path"
        [ [ 1; 2; 3; 4 ] ]
        (labelled (paths algo ~n:4 ~iteration:0)))
    [ Search.Lds; Search.Dds ]

let test_lds_iteration1 () =
  (* Figure 1(b): the six paths containing exactly one discrepancy,
     explored left to right. *)
  Alcotest.(check (list (list int)))
    "LDS 1st iteration"
    [
      [ 1; 2; 4; 3 ]; [ 1; 3; 2; 4 ]; [ 1; 4; 2; 3 ];
      [ 2; 1; 3; 4 ]; [ 3; 1; 2; 4 ]; [ 4; 1; 2; 3 ];
    ]
    (labelled (paths Search.Lds ~n:4 ~iteration:1))

let test_lds_iteration2_count () =
  (* Figure 1(c): eleven paths containing two discrepancies. *)
  Alcotest.(check int) "LDS 2nd iteration size" 11
    (List.length (paths Search.Lds ~n:4 ~iteration:2));
  List.iter
    (fun p ->
      Alcotest.(check int) "exactly two discrepancies" 2 (discrepancies p))
    (paths Search.Lds ~n:4 ~iteration:2)

let test_dds_iteration1 () =
  (* Figure 1(e): three paths with one discrepancy at depth one. *)
  Alcotest.(check (list (list int)))
    "DDS 1st iteration"
    [ [ 2; 1; 3; 4 ]; [ 3; 1; 2; 4 ]; [ 4; 1; 2; 3 ] ]
    (labelled (paths Search.Dds ~n:4 ~iteration:1))

let test_dds_iteration2 () =
  (* Figure 1(f): eight paths - any branch at depth one, a discrepancy
     at depth two, heuristic below (0-1-3-2-4 and 0-2-3-1-4 are the
     paper's examples). *)
  let expected =
    [
      [ 1; 3; 2; 4 ]; [ 1; 4; 2; 3 ];
      [ 2; 3; 1; 4 ]; [ 2; 4; 1; 3 ];
      [ 3; 2; 1; 4 ]; [ 3; 4; 1; 2 ];
      [ 4; 2; 1; 3 ]; [ 4; 3; 1; 2 ];
    ]
  in
  Alcotest.(check (list (list int)))
    "DDS 2nd iteration" expected
    (labelled (paths Search.Dds ~n:4 ~iteration:2))

let test_dds_biases_high_discrepancies_earlier () =
  (* Section 2.2's example: 0-4-3-1-2 is the 12th path explored under
     DDS but the 18th under LDS. *)
  let position algo =
    let all = Oracle.all_paths algo ~n:4 in
    let rec index i = function
      | [] -> Alcotest.fail "path not visited"
      | p :: rest -> if p = [ 3; 2; 0; 1 ] then i else index (i + 1) rest
    in
    index 1 all
  in
  Alcotest.(check int) "DDS visits 0-4-3-1-2 12th" 12 (position Search.Dds);
  Alcotest.(check int) "LDS visits 0-4-3-1-2 18th" 18 (position Search.Lds)

let test_partition_all_paths () =
  (* Every iteration scheme visits each of the n! paths exactly once. *)
  List.iter
    (fun algo ->
      List.iter
        (fun n ->
          let visited = Oracle.all_paths algo ~n in
          let expected = int_of_float (Tree_enum.path_count ~n) in
          Alcotest.(check int)
            (Printf.sprintf "%s covers %d! paths" (Search.algorithm_name algo) n)
            expected (List.length visited);
          let unique = List.sort_uniq compare visited in
          Alcotest.(check int) "no duplicates" expected (List.length unique))
        [ 1; 2; 3; 4; 5 ])
    [ Search.Dfs; Search.Lds; Search.Dds ]

let test_lds_original_supersets () =
  (* original LDS iteration k = union of improved-LDS iterations 0..k *)
  for k = 0 to 3 do
    let original = paths Search.Lds_original ~n:4 ~iteration:k in
    let unioned =
      List.concat_map
        (fun j -> paths Search.Lds ~n:4 ~iteration:j)
        (List.init (k + 1) Fun.id)
    in
    Alcotest.(check int)
      (Printf.sprintf "iteration %d size" k)
      (List.length unioned) (List.length original);
    List.iter
      (fun p ->
        Alcotest.(check bool) "member" true (List.mem p original))
      unioned
  done

let test_discrepancy_counting () =
  let in_iteration algo ~iteration path =
    List.mem path (paths algo ~n:(List.length path) ~iteration)
  in
  Alcotest.(check bool) "heuristic path" true
    (in_iteration Search.Lds ~iteration:0 [ 0; 1; 2; 3 ]);
  Alcotest.(check bool) "worst path" true
    (in_iteration Search.Lds ~iteration:3 [ 3; 2; 1; 0 ]);
  (* choosing the 3rd-ranked child still counts as ONE discrepancy *)
  Alcotest.(check bool) "deep branch = one discrepancy" true
    (in_iteration Search.Lds ~iteration:1 [ 3; 0; 1; 2 ]);
  Alcotest.(check bool) "no discrepancy" true
    (in_iteration Search.Dds ~iteration:0 [ 0; 1; 2 ]);
  Alcotest.(check bool) "deepest at 1" true
    (in_iteration Search.Dds ~iteration:2 [ 0; 2; 1 ])

let test_figure_1d_sizes () =
  (* Figure 1(d): #paths and #nodes for n = 1, 2, 3, 4, 10, 15. *)
  let check n paths nodes =
    Alcotest.(check (float 0.5))
      (Printf.sprintf "paths n=%d" n)
      paths (Tree_enum.path_count ~n);
    Alcotest.(check (float (Float.max 0.5 (nodes *. 1e-6))))
      (Printf.sprintf "nodes n=%d" n)
      nodes (Tree_enum.node_count ~n)
  in
  check 1 1.0 1.0;
  check 2 2.0 4.0;
  check 3 6.0 15.0;
  check 4 24.0 64.0;
  check 10 3_628_800.0 9_864_100.0;
  (* the paper prints 1,307,674M paths and 3,554,627M nodes *)
  check 15 1.307674368e12 3.554627472075286e12

let suite =
  [
    Alcotest.test_case "iteration 0" `Quick test_iteration0;
    Alcotest.test_case "LDS iteration 1 (Fig 1b)" `Quick test_lds_iteration1;
    Alcotest.test_case "LDS iteration 2 (Fig 1c)" `Quick
      test_lds_iteration2_count;
    Alcotest.test_case "DDS iteration 1 (Fig 1e)" `Quick test_dds_iteration1;
    Alcotest.test_case "DDS iteration 2 (Fig 1f)" `Quick test_dds_iteration2;
    Alcotest.test_case "DDS bias (Sec 2.2 example)" `Quick
      test_dds_biases_high_discrepancies_earlier;
    Alcotest.test_case "iterations partition the tree" `Quick
      test_partition_all_paths;
    Alcotest.test_case "original LDS supersets" `Quick
      test_lds_original_supersets;
    Alcotest.test_case "discrepancy counting" `Quick test_discrepancy_counting;
    Alcotest.test_case "Figure 1(d) sizes" `Quick test_figure_1d_sizes;
  ]
