let known =
  [
    "fcfs-bf"; "lxf-bf"; "sjf-bf"; "lxfw-bf"; "conservative"; "selective";
    "multi-queue"; "run-now"; "dds/lxf/dynb"; "dds/fcfs/dynb"; "lds/lxf/dynb";
    "dds/lxf/w=50"; "dds/lxf/rt=1:2"; "dds/lxf/dynb+bnb"; "dds/lxf/dynb+ls"; "dds/lxf/dynb+fair";
  ]

let ( let* ) = Result.bind

let parse_algorithm = function
  | "dds" -> Ok Core.Search.Dds
  | "lds" -> Ok Core.Search.Lds
  | "lds0" -> Ok Core.Search.Lds_original
  | "dfs" -> Ok Core.Search.Dfs
  | s -> Error (Printf.sprintf "unknown search algorithm %S" s)

let parse_heuristic = function
  | "fcfs" -> Ok Sched.Priority.fcfs
  | "lxf" -> Ok Sched.Priority.lxf
  | s -> Error (Printf.sprintf "unknown branching heuristic %S" s)

let parse_bound s =
  if s = "dynb" then Ok Core.Bound.dynamic
  else if String.length s > 2 && String.sub s 0 2 = "w=" then
    match float_of_string_opt (String.sub s 2 (String.length s - 2)) with
    | Some hours when hours >= 0.0 -> Ok (Core.Bound.fixed_hours hours)
    | _ -> Error (Printf.sprintf "bad fixed bound %S (want w=<hours>)" s)
  else if String.length s > 3 && String.sub s 0 3 = "rt=" then begin
    match
      String.split_on_char ':' (String.sub s 3 (String.length s - 3))
    with
    | [ floor; factor ] -> (
        match (float_of_string_opt floor, float_of_string_opt factor) with
        | Some floor_h, Some factor when floor_h >= 0.0 && factor >= 0.0 ->
            Ok
              (Core.Bound.Runtime_scaled
                 { floor = Simcore.Units.hours floor_h; factor })
        | _ -> Error (Printf.sprintf "bad runtime bound %S" s))
    | _ -> Error (Printf.sprintf "bad runtime bound %S (want rt=<h>:<f>)" s)
  end
  else Error (Printf.sprintf "unknown bound %S (dynb, w=<hours>, rt=<h>:<f>)" s)

(* Strip one "+opt" suffix at a time. *)
let rec strip_options spec prune local_search fairshare =
  let suffix tag = Filename.check_suffix spec tag in
  if suffix "+bnb" then
    strip_options (Filename.chop_suffix spec "+bnb") true local_search fairshare
  else if suffix "+ls" then
    strip_options (Filename.chop_suffix spec "+ls") prune true fairshare
  else if suffix "+fair" then
    strip_options (Filename.chop_suffix spec "+fair") prune local_search
      (Some 2.0)
  else (spec, prune, local_search, fairshare)

let parse_search ~budget spec =
  let spec, prune, local_search, fairshare = strip_options spec false false None in
  match String.split_on_char '/' spec with
  | [ algo; heuristic; bound ] ->
      let* algorithm = parse_algorithm algo in
      let* heuristic = parse_heuristic heuristic in
      let* bound = parse_bound bound in
      let config =
        Core.Search_policy.v ~prune ~local_search ?fairshare ~algorithm
          ~heuristic ~bound ~budget ()
      in
      Ok (fst (Core.Search_policy.policy config))
  | _ ->
      Error
        (Printf.sprintf "bad policy spec %S (examples: %s)" spec
           (String.concat ", " known))

let parse ~budget spec =
  match String.lowercase_ascii (String.trim spec) with
  | "fcfs-bf" -> Ok Sched.Backfill.fcfs
  | "lxf-bf" -> Ok Sched.Backfill.lxf
  | "sjf-bf" -> Ok Sched.Backfill.sjf
  | "lxfw-bf" ->
      Ok (Sched.Backfill.policy Sched.Priority.lxf_w)
  | "conservative" -> Ok Sched.Conservative.policy
  | "selective" -> Ok (Sched.Selective.policy ())
  | "multi-queue" -> Ok Sched.Multi_queue.policy
  | "run-now" -> Ok Sched.Backfill.run_now
  | lowered -> parse_search ~budget lowered
