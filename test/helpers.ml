(* Shared helpers for the test suite. *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else scan (i + 1)
  in
  nn = 0 || scan 0

(* Every qcheck property draws its cases from one fixed seed, so each
   run of the suite checks the same cases; [QCHECK_SEED=n] draws them
   from seed [n] instead.  The seed is printed once.  Each property
   gets a fresh state from the seed, so its cases do not depend on
   which properties ran before it. *)
let qcheck_seed =
  lazy
    (let seed =
       Option.value ~default:20050627
         (Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt)
     in
     Printf.printf "qcheck seed: %d (QCHECK_SEED=n to change)\n%!" seed;
     seed)

let qcheck test =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| Lazy.force qcheck_seed |])
    test

(* [Core.Objective]'s order, read through [is_better]: equal within its
   tolerance, and no worse. *)
let objective_equal a b =
  not (Core.Objective.is_better ~candidate:a ~incumbent:b)
  && not (Core.Objective.is_better ~candidate:b ~incumbent:a)

let objective_no_worse a b = not (Core.Objective.is_better ~candidate:b ~incumbent:a)

(* Largest absolute element-wise difference (percentage points). *)
let max_abs_diff a b =
  if Array.length a <> Array.length b then
    invalid_arg "Helpers.max_abs_diff: length mismatch";
  let worst = ref 0.0 in
  Array.iteri (fun i x -> worst := Float.max !worst (Float.abs (x -. b.(i)))) a;
  !worst

(* [Swf.of_file] over a file holding [s]. *)
let swf_of_string s =
  let path = Filename.temp_file "swf" ".swf" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc s);
      Workload.Swf.of_file path)

(* The name of the search policy [config] builds. *)
let search_policy_name config =
  (fst (Core.Search_policy.policy config)).Sched.Policy.name

(* [f] over a fresh pool, shut down afterwards, also on exception. *)
let with_pool ~jobs f =
  let pool = Simcore.Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Simcore.Pool.shutdown pool) (fun () -> f pool)

(* Exp with the given mean, by inversion. *)
let exponential rng ~mean = -.mean *. log (1.0 -. Simcore.Rng.unit_float rng)

(* The non-empty lines [pp] renders [x] as. *)
let pp_lines pp x =
  Format.asprintf "%a" pp x |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

(* The OpenMetrics exposition of [reg], one line per element. *)
let openmetrics_lines reg =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  Simcore.Metrics.pp_openmetrics fmt reg;
  Format.pp_print_flush fmt ();
  String.split_on_char '\n' (Buffer.contents buf)

let job ?(id = 0) ?(submit = 0.0) ?(nodes = 1) ?(runtime = 3600.0) ?requested
    ?(user = 0) () =
  Workload.Job.make ~id ~submit ~nodes ~runtime
    ~requested:(Option.value requested ~default:runtime) ~user

(* Deterministic mini-workload: [n] jobs with pseudo-random sizes and
   runtimes, arriving over [horizon] seconds. *)
let mini_trace ?(n = 40) ?(capacity = 16) ?(horizon = 7200.0) ~seed () =
  let rng = Simcore.Rng.create ~seed in
  let jobs =
    List.init n (fun id ->
        let nodes = 1 + Simcore.Rng.int rng capacity in
        let runtime = 60.0 +. Simcore.Rng.float rng 3600.0 in
        let submit = Simcore.Rng.float rng horizon in
        let requested = runtime *. (1.0 +. Simcore.Rng.float rng 3.0) in
        Workload.Job.v ~id ~submit ~nodes ~runtime ~requested)
  in
  Workload.Trace.v jobs

(* [trace] with its jobs shared round-robin among users 1 .. [users]. *)
let with_users ~users trace =
  Workload.Trace.v
    (List.map
       (fun (j : Workload.Job.t) -> { j with user = 1 + (j.id mod users) })
       (Array.to_list (Workload.Trace.jobs trace)))

(* Like [mini_trace], but submit times, runtimes and requested limits
   are whole minutes: every decision point lies on a 60 s grid.  Jobs
   of at most half the machine with runtimes of 1-10 minutes, over a
   half-hour horizon, make arrivals often coincide with departures and
   with each other.  With [jitter], about a third of the submits land
   0.5 ns past their grid minute: sub-nanosecond near-ties, each of
   which is a decision point of its own.  Without it the draws, and so
   the trace, are those of the plain grid. *)
let grid_trace ?(n = 30) ?(capacity = 16) ?(horizon = 1800.0)
    ?(jitter = false) ~seed () =
  let rng = Simcore.Rng.create ~seed in
  let minutes k = 60.0 *. float_of_int k in
  let jobs =
    List.init n (fun id ->
        let nodes = 1 + Simcore.Rng.int rng (capacity / 2) in
        let runtime = minutes (1 + Simcore.Rng.int rng 10) in
        let submit =
          minutes (Simcore.Rng.int rng (int_of_float (horizon /. 60.0)))
        in
        let requested = runtime +. minutes (Simcore.Rng.int rng 40) in
        let submit =
          if jitter && Simcore.Rng.int rng 3 = 0 then submit +. 0.5e-9
          else submit
        in
        Workload.Job.v ~id ~submit ~nodes ~runtime ~requested)
  in
  Workload.Trace.v jobs

(* Whether [nodes] nodes are free during all of [at, at + duration) on
   the segment list [segments] (as [Profile.segments] gives it): every
   segment that overlaps the window has that many free. *)
let fits_segments segments ~at ~nodes ~duration =
  let until = at +. duration in
  let rec go = function
    | [] -> true
    | (start, free) :: rest ->
        let next = match rest with (t, _) :: _ -> t | [] -> infinity in
        (start >= until || next <= at || free >= nodes) && go rest
  in
  at >= fst (List.hd segments) && go segments

(* [fits_segments] on [p]'s segment list: the naive reference for the
   floor-based start test in [Sched.Backfill.pass]. *)
let fits_window p ~at ~nodes ~duration =
  fits_segments (Cluster.Profile.segments p) ~at ~nodes ~duration

(* The first segment start of [p] at which [fits_segments] holds: a
   naive scan of the segment list, the reference [Profile.place_earliest]
   is held to.  A start is always a segment boundary, and the last
   segment has every node free. *)
let earliest_start p ~nodes ~duration =
  let segments = Cluster.Profile.segments p in
  match
    List.find_opt
      (fun (at, _) -> fits_segments segments ~at ~nodes ~duration)
      segments
  with
  | Some (at, _) -> at
  | None -> invalid_arg "Helpers.earliest_start: wider than the machine"

(* The start [Profile.place_earliest] picks on a copy of [p], leaving
   [p] as it is. *)
let placed p ~nodes ~duration =
  Cluster.Profile.place_earliest (Cluster.Profile.copy p) ~nodes ~duration

(* [policy] over [trace], with the engine's decision reports in time
   order. *)
let run_observed ?(r_star = Sim.Engine.Actual) ~machine ~policy trace =
  let reports = ref [] in
  let result =
    Sim.Engine.run ~machine
      ~observe:(fun d -> reports := d :: !reports)
      ~r_star ~policy trace
  in
  (result, List.rev !reports)

(* Whether the outcomes hold nodes as the engine reported them held.
   An outcome records only its start, so its finish is [start + T] by
   definition; the engine's real departures show only in its reports.
   Every [Outcome.finish] must be a reported decision instant, and each
   report's running jobs and busy nodes those of the outcomes whose
   [start, finish) holds [now], at most [capacity].  Usage changes only
   at decision instants, so the schedule the outcomes describe then
   holds each job's nodes for exactly T and never oversubscribes. *)
let held_as_reported ~capacity (result : Sim.Engine.result) reports =
  let outcomes = result.Sim.Engine.outcomes in
  let reported t =
    List.exists (fun (d : Sim.Engine.decision) -> Float.equal d.now t) reports
  in
  let rebuilt (d : Sim.Engine.decision) =
    let held =
      List.filter
        (fun (o : Metrics.Outcome.t) ->
          o.start <= d.now && d.now < Metrics.Outcome.finish o)
        outcomes
    in
    d.busy <= capacity
    && d.running = List.length held
    && d.busy
       = List.fold_left
           (fun acc (o : Metrics.Outcome.t) -> acc + o.job.Workload.Job.nodes)
           0 held
  in
  List.for_all (fun o -> reported (Metrics.Outcome.finish o)) outcomes
  && List.for_all rebuilt reports
