(* Tests for the priority functions and backfill schedulers. *)

open Sched

let r_star (j : Workload.Job.t) = j.runtime

let context ?(now = 0.0) ?(capacity = 16) ~waiting ~running () =
  let machine = Cluster.Machine.v ~nodes:capacity in
  let rs = Cluster.Running_set.create ~machine in
  List.iter
    (fun (id, nodes, start, runtime) ->
      let job = Helpers.job ~id ~nodes ~runtime ~submit:(Float.max 0.0 start) () in
      Cluster.Running_set.add rs
        {
          Cluster.Running_set.job;
          start;
          finish = start +. runtime;
          est_finish = start +. runtime;
        })
    running;
  { Policy.now; waiting; running = rs; r_star }

(* --- Priority --- *)

let test_fcfs_priority () =
  let a = Helpers.job ~id:0 ~submit:10.0 () in
  let b = Helpers.job ~id:1 ~submit:5.0 () in
  Alcotest.(check bool) "earlier first" true
    (Oracle.compare_priority Priority.fcfs ~now:20.0 ~r_star b a < 0)

let test_sjf_priority () =
  let short = Helpers.job ~id:0 ~runtime:60.0 () in
  let long = Helpers.job ~id:1 ~runtime:3600.0 () in
  Alcotest.(check bool) "short first" true
    (Oracle.compare_priority Priority.sjf ~now:0.0 ~r_star short long < 0)

let test_lxf_priority () =
  (* same wait, shorter job has larger expansion factor *)
  let short = Helpers.job ~id:0 ~submit:0.0 ~runtime:600.0 () in
  let long = Helpers.job ~id:1 ~submit:0.0 ~runtime:36000.0 () in
  Alcotest.(check bool) "larger xf first" true
    (Oracle.compare_priority Priority.lxf ~now:3600.0 ~r_star short long < 0)

let test_expansion_factor () =
  let j = Helpers.job ~submit:0.0 ~runtime:3600.0 () in
  Alcotest.(check (float 1e-9)) "xf after one hour wait" 2.0
    (Priority.expansion_factor ~now:3600.0 ~r_star j);
  let tiny = Helpers.job ~submit:0.0 ~runtime:1.0 () in
  (* the one-minute floor keeps very short jobs from exploding *)
  Alcotest.(check (float 1e-9)) "floored xf" 61.0
    (Priority.expansion_factor ~now:3600.0 ~r_star tiny)

let test_lxf_w_prefers_waiters () =
  let p = Priority.lxf_w ~weight_per_hour:100.0 in
  let waited = Helpers.job ~id:0 ~submit:0.0 ~runtime:36000.0 () in
  let fresh = Helpers.job ~id:1 ~submit:35000.0 ~runtime:600.0 () in
  (* plain lxf prefers the fresh short job; a big wait weight flips it *)
  Alcotest.(check bool) "lxf prefers fresh short job" true
    (Oracle.compare_priority Priority.lxf ~now:36000.0 ~r_star fresh waited < 0);
  Alcotest.(check bool) "lxf&w prefers the long waiter" true
    (Oracle.compare_priority p ~now:36000.0 ~r_star waited fresh < 0)

(* --- Backfill --- *)

let test_backfill_starts_what_fits () =
  let waiting =
    [ Helpers.job ~id:0 ~nodes:8 (); Helpers.job ~id:1 ~submit:1.0 ~nodes:8 () ]
  in
  let ctx = context ~now:10.0 ~waiting ~running:[] () in
  let plan = Backfill.plan ~reservations:1 ~priority:Priority.fcfs ctx in
  Alcotest.(check (list int)) "both start" [ 0; 1 ]
    (List.map (fun (j : Workload.Job.t) -> j.id) plan.Backfill.start_now)

let test_backfill_reserves_blocked_head () =
  (* 12 busy of 16 until t=100; head needs 8 -> reservation at 100 *)
  let waiting = [ Helpers.job ~id:0 ~nodes:8 () ] in
  let ctx =
    context ~now:0.0 ~waiting ~running:[ (99, 12, -50.0, 150.0) ] ()
  in
  let plan = Backfill.plan ~reservations:1 ~priority:Priority.fcfs ctx in
  Alcotest.(check int) "nothing starts" 0 (List.length plan.Backfill.start_now);
  match plan.Backfill.reserved with
  | [ (j, at) ] ->
      Alcotest.(check int) "head reserved" 0 j.Workload.Job.id;
      Alcotest.(check (float 1e-6)) "at release time" 100.0 at
  | _ -> Alcotest.fail "expected exactly one reservation"

let test_backfill_respects_reservation () =
  (* Head job (8 nodes) reserved at t=100.  A 4-node backfill candidate
     fits now only if it finishes by t=100 (4 free now). *)
  let running = [ (99, 12, -50.0, 150.0) ] in
  let head = Helpers.job ~id:0 ~nodes:8 () in
  let short = Helpers.job ~id:1 ~submit:1.0 ~nodes:4 ~runtime:50.0 () in
  let long = Helpers.job ~id:2 ~submit:2.0 ~nodes:4 ~runtime:500.0 () in
  let ctx = context ~now:0.0 ~waiting:[ head; short; long ] ~running () in
  let plan = Backfill.plan ~reservations:1 ~priority:Priority.fcfs ctx in
  Alcotest.(check (list int)) "only the harmless job backfills" [ 1 ]
    (List.map (fun (j : Workload.Job.t) -> j.id) plan.Backfill.start_now)

let test_backfill_long_backfill_behind_reservation () =
  (* The long 4-node job CAN backfill if the reservation leaves slack:
     head needs 8, release at t=100 frees 12, so 4 nodes stay free
     through the reservation. *)
  let running = [ (99, 12, -50.0, 150.0) ] in
  let head = Helpers.job ~id:0 ~nodes:8 () in
  let long = Helpers.job ~id:2 ~submit:2.0 ~nodes:4 ~runtime:500.0 () in
  let ctx = context ~now:0.0 ~waiting:[ head; long ] ~running () in
  let plan = Backfill.plan ~reservations:1 ~priority:Priority.fcfs ctx in
  Alcotest.(check (list int)) "long job backfills into slack" [ 2 ]
    (List.map (fun (j : Workload.Job.t) -> j.id) plan.Backfill.start_now)

let test_backfill_priority_order_matters () =
  (* 8 free; two 8-node jobs; LXF should pick the one with larger xf *)
  let old_long = Helpers.job ~id:0 ~submit:0.0 ~nodes:8 ~runtime:36000.0 () in
  let new_short = Helpers.job ~id:1 ~submit:3500.0 ~nodes:8 ~runtime:60.0 () in
  let ctx =
    context ~now:3600.0 ~waiting:[ old_long; new_short ]
      ~running:[ (99, 8, 0.0, 100000.0) ] ()
  in
  let fcfs_plan = Backfill.plan ~reservations:1 ~priority:Priority.fcfs ctx in
  let lxf_plan = Backfill.plan ~reservations:1 ~priority:Priority.lxf ctx in
  Alcotest.(check (list int)) "fcfs starts the older" [ 0 ]
    (List.map (fun (j : Workload.Job.t) -> j.id) fcfs_plan.Backfill.start_now);
  Alcotest.(check (list int)) "lxf starts the larger-xf job" [ 1 ]
    (List.map (fun (j : Workload.Job.t) -> j.id) lxf_plan.Backfill.start_now)

let test_policy_names () =
  Alcotest.(check string) "fcfs name" "FCFS-backfill"
    Backfill.fcfs.Policy.name;
  Alcotest.(check string) "lxf name" "LXF-backfill" Backfill.lxf.Policy.name;
  Alcotest.(check string) "conservative name" "conservative-fcfs"
    Conservative.policy.Policy.name

let test_run_now_policy () =
  let waiting =
    [ Helpers.job ~id:0 ~nodes:12 (); Helpers.job ~id:1 ~submit:1.0 ~nodes:8 ();
      Helpers.job ~id:2 ~submit:2.0 ~nodes:4 () ]
  in
  let ctx = context ~now:10.0 ~waiting ~running:[] () in
  let started = Backfill.run_now.Policy.decide ctx in
  Alcotest.(check (list int)) "greedy fill skips too-wide" [ 0; 2 ]
    (List.map (fun (j : Workload.Job.t) -> j.id) started)

(* Property: backfilled jobs never delay the highest-priority waiting
   job beyond its reservation. *)
let prop_backfill_preserves_reservation =
  QCheck.Test.make ~name:"backfill never delays the reservation" ~count:200
    QCheck.int
    (fun seed ->
      let rng = Simcore.Rng.create ~seed in
      let capacity = 16 in
      let running =
        List.init 3 (fun i ->
            (90 + i, 1 + Simcore.Rng.int rng 4, 0.0,
             60.0 +. Simcore.Rng.float rng 1000.0))
      in
      let waiting =
        List.init 8 (fun id ->
            Helpers.job ~id ~submit:(Simcore.Rng.float rng 50.0)
              ~nodes:(1 + Simcore.Rng.int rng capacity)
              ~runtime:(60.0 +. Simcore.Rng.float rng 2000.0)
              ())
      in
      let ctx = context ~now:60.0 ~capacity ~waiting ~running () in
      let head =
        List.hd (List.sort Workload.Job.compare_submit ctx.Policy.waiting)
      in
      let without_backfill =
        (* reservation computed with no other waiting jobs *)
        Backfill.plan ~reservations:1 ~priority:Priority.fcfs
          { ctx with Policy.waiting = [ head ] }
      in
      let full = Backfill.plan ~reservations:1 ~priority:Priority.fcfs ctx in
      match (without_backfill.Backfill.reserved, full.Backfill.reserved) with
      | [ (_, t0) ], [ (_, t1) ] -> t1 <= t0 +. 1e-6
      | [], _ -> true (* head started immediately: nothing to preserve *)
      | _ -> true)

(* Property: [plan] checks whether the queue is already in priority
   order and sorts only if it is not.  The reference stable-sorts the
   queue up front, as [plan] once always did; the two must agree on
   submit-ordered and shuffled queues under every priority. *)
let prop_sort_skip_matches_sort =
  QCheck.Test.make ~name:"plan with sort skip = plan after stable_sort"
    ~count:200 QCheck.int (fun seed ->
      let rng = Simcore.Rng.create ~seed in
      let capacity = 16 + Simcore.Rng.int rng 113 in
      let now = 5000.0 in
      let running =
        List.init (Simcore.Rng.int rng 8) (fun i ->
            ( 1000 + i,
              1 + Simcore.Rng.int rng (capacity / 8),
              Simcore.Rng.float rng now,
              60.0 +. Simcore.Rng.float rng 7200.0 ))
      in
      (* submits on a coarse grid, so FCFS falls back on its id tie-break *)
      let waiting =
        List.init (Simcore.Rng.int rng 31) (fun id ->
            Helpers.job ~id
              ~submit:(100.0 *. Float.of_int (Simcore.Rng.int rng 40))
              ~nodes:(1 + Simcore.Rng.int rng capacity)
              ~runtime:(60.0 +. Simcore.Rng.float rng 7200.0)
              ())
      in
      let submit_ordered = List.sort Workload.Job.compare_submit waiting in
      let shuffled =
        let a = Array.of_list waiting in
        for i = Array.length a - 1 downto 1 do
          let k = Simcore.Rng.int rng (i + 1) in
          let x = a.(i) in
          a.(i) <- a.(k);
          a.(k) <- x
        done;
        Array.to_list a
      in
      let ctx = context ~now ~capacity ~waiting:[] ~running () in
      let reservations = 1 + Simcore.Rng.int rng 3 in
      let ids = List.map (fun (j : Workload.Job.t) -> j.id) in
      let same (a : Backfill.plan) (b : Backfill.plan) =
        ids a.start_now = ids b.start_now
        && List.map (fun ((j : Workload.Job.t), s) -> (j.id, s)) a.reserved
           = List.map (fun ((j : Workload.Job.t), s) -> (j.id, s)) b.reserved
      in
      List.for_all
        (fun priority ->
          let cmp = Oracle.compare_priority priority ~now ~r_star in
          List.for_all
            (fun queue ->
              same
                (Backfill.plan ~reservations ~priority
                   { ctx with Policy.waiting = queue })
                (Backfill.plan ~reservations ~priority
                   { ctx with Policy.waiting = List.stable_sort cmp queue }))
            [ submit_ordered; shuffled ])
        [
          Priority.fcfs;
          Priority.lxf;
          Priority.sjf;
          Priority.lxf_w ~weight_per_hour:0.5;
        ])

(* The keyed order against its comparator.  [Priority.order] computes
   each key once and merge-sorts an index permutation; the reference
   stable-sorts with [Oracle.compare_priority], which recomputes both keys on
   every comparison.  The queues force every tie the two must break
   alike: submits on a four-point grid whose last point is [now] (equal
   submits, jobs that have waited 0 s), estimates from a short list
   with repeats and with sub-minute values that LXF floors at 1 min,
   under R* = T, R* = R and a predictor-style estimate.  Each queue is
   ordered as generated, already sorted (which must come back as the
   very same list) and reverse-sorted. *)
let tie_queue_arbitrary =
  let estimates = [| 1.0; 30.0; 59.0; 60.0; 600.0; 3600.0 |] in
  let job id (s, r, q) =
    let runtime = estimates.(r) in
    Helpers.job ~id ~submit:(600.0 *. Float.of_int s) ~runtime
      ~requested:(runtime *. Float.of_int q) ()
  in
  QCheck.make
    ~print:(fun jobs ->
      String.concat "; "
        (List.map
           (fun (j : Workload.Job.t) ->
             Printf.sprintf "#%d@%g T=%g R=%g" j.id j.submit j.runtime
               j.requested)
           jobs))
    QCheck.Gen.(
      map
        (List.mapi job)
        (list_size (0 -- 70) (triple (0 -- 3) (0 -- 5) (1 -- 2))))

(* A key with few values, so most jobs tie on it: the negated index of
   the first boundary at or above the estimated runtime (the shape of
   the multi-queue order). *)
let ranked boundaries =
  let rank r =
    let rec scan i = function
      | [] -> i
      | b :: rest -> if r <= b then i else scan (i + 1) rest
    in
    scan 0 boundaries
  in
  { Priority.name = "ranked";
    key = Keyed (fun ~now:_ ~r_star j -> -.float_of_int (rank (r_star j))) }

let prop_keyed_order_matches_compare =
  let now = 1800.0 in
  let r_stars =
    [ (fun (j : Workload.Job.t) -> Float.min j.runtime j.requested);
      (fun (j : Workload.Job.t) -> j.requested);
      (fun (j : Workload.Job.t) ->
        Float.max 60.0 (Float.min j.requested (j.requested *. 0.37))) ]
  in
  let priorities =
    [ Priority.fcfs; Priority.sjf; Priority.lxf;
      Priority.lxf_w ~weight_per_hour:0.5; ranked [ 3600.0; 18000.0 ];
      ranked [ 30.0; 600.0 ] ]
  in
  let ids = List.map (fun (j : Workload.Job.t) -> j.id) in
  QCheck.Test.make ~name:"Priority.order = stable_sort Oracle.compare_priority"
    ~count:300 tie_queue_arbitrary (fun jobs ->
      List.for_all
        (fun r_star ->
          List.for_all
            (fun p ->
              let sorted =
                List.stable_sort (Oracle.compare_priority p ~now ~r_star) jobs
              in
              Priority.order p ~now ~r_star sorted == sorted
              && List.for_all
                   (fun queue ->
                     ids (Priority.order p ~now ~r_star queue) = ids sorted)
                   [ jobs; List.rev sorted ])
            priorities)
        r_stars)

(* A random decision context as the engine builds one: the queue in
   submit order (coarse submits, so ties fall back on ids), a running
   set whose estimated releases may already be overdue, and R* = T or
   R* = R. *)
let random_decision_context rng =
  let capacity = 8 + Simcore.Rng.int rng 121 in
  let now = 10_000.0 in
  let machine = Cluster.Machine.v ~nodes:capacity in
  let rs = Cluster.Running_set.create ~machine in
  for i = 0 to Simcore.Rng.int rng 10 - 1 do
    let nodes = 1 + Simcore.Rng.int rng (1 + (capacity / 4)) in
    if nodes <= Cluster.Running_set.free_nodes rs then begin
      let start = Simcore.Rng.float rng now in
      let job =
        Helpers.job ~id:(1000 + i) ~submit:start ~nodes
          ~runtime:(now -. start +. 60.0) ()
      in
      Cluster.Running_set.add rs
        {
          Cluster.Running_set.job;
          start;
          finish = now +. 60.0 +. Simcore.Rng.float rng 7200.0;
          est_finish =
            Float.max start (now -. 3600.0 +. Simcore.Rng.float rng 10800.0);
        }
    end
  done;
  let waiting =
    List.init (Simcore.Rng.int rng 25) (fun id ->
        let runtime = 60.0 +. Simcore.Rng.float rng 7200.0 in
        Helpers.job ~id
          ~submit:(100.0 *. Float.of_int (Simcore.Rng.int rng 90))
          ~nodes:(1 + Simcore.Rng.int rng capacity)
          ~runtime
          ~requested:(runtime *. (1.0 +. Simcore.Rng.float rng 2.0))
          ())
    |> List.sort Workload.Job.compare_submit
  in
  let r_star =
    (* a fair coin: the low bit of the next draw *)
    if Int64.logand (Simcore.Rng.bits64 rng) 1L = 1L then
      fun (j : Workload.Job.t) -> j.runtime
    else fun (j : Workload.Job.t) -> j.requested
  in
  { Policy.now; waiting; running = rs; r_star }

(* Properties: policies that differ only in which blocked jobs they
   reserve decide identically when their reservation rules coincide. *)
let decides_as ~name a b =
  QCheck.Test.make ~name ~count:200 QCheck.int (fun seed ->
      let ctx = random_decision_context (Simcore.Rng.create ~seed) in
      let ids p =
        List.map (fun (j : Workload.Job.t) -> j.id) (p.Policy.decide ctx)
      in
      ids a = ids b)

let prop_selective_unreachable_is_run_now =
  decides_as ~name:"selective(xf>=infinity) decides as run-now"
    (Selective.policy ~threshold:Float.infinity ())
    Backfill.run_now

let prop_no_reservation_backfill_is_run_now =
  decides_as ~name:"FCFS-backfill/res=0 decides as run-now"
    (Backfill.policy ~reservations:0 Priority.fcfs)
    Backfill.run_now

let prop_selective_zero_is_conservative =
  decides_as ~name:"selective(xf>=0) decides as conservative"
    (Selective.policy ~threshold:0.0 ())
    Conservative.policy

(* Allocation guard: one FCFS-backfill decision over a fixed 30-job
   submit-ordered queue and 20 running jobs.  The profile is built from
   the running set's maintained release order, the queue is not
   re-sorted and the window scans allocate no closures: about 220
   minor words per decision, against 1,821 when the release list, the
   sort and the scan closures were rebuilt every time.  The bound of
   400 is under a quarter of that, and each of the three rebuilds
   coming back alone lifts a decision above 460 words. *)
let test_fcfs_decide_allocation () =
  let running =
    List.init 20 (fun i ->
        (100 + i, 1 + (i mod 5), -.Float.of_int (37 * i),
         600.0 +. Float.of_int (311 * i)))
  in
  let waiting =
    List.init 30 (fun id ->
        Helpers.job ~id
          ~submit:(Float.of_int (10 * id))
          ~nodes:(1 + (id * 17 mod 48))
          ~runtime:(300.0 +. Float.of_int (97 * id))
          ())
  in
  let ctx = context ~now:1000.0 ~capacity:128 ~waiting ~running () in
  let decide () = ignore (Backfill.fcfs.Policy.decide ctx) in
  for _ = 1 to 10 do
    decide ()
  done;
  let decisions = 100 in
  let before = Gc.minor_words () in
  for _ = 1 to decisions do
    decide ()
  done;
  let per_decision = (Gc.minor_words () -. before) /. Float.of_int decisions in
  (* 203 words in the dev build; the bound is 10% above, so storage
     for the start test cannot grow a decision unseen *)
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words per decision <= 223" per_decision)
    true (per_decision <= 223.0)

(* Mechanism guard for the width check in [Backfill.pass], by count,
   not by timing: one FCFS-backfill decision asks for the estimated
   runtime of the jobs it may start and of the job it reserves, never
   of a job wider than the nodes free now.  The FCFS order itself asks
   for none.  A pass that scans every queued job makes 30 calls. *)
let test_wide_jobs_skip_r_star () =
  let waiting =
    List.init 30 (fun id ->
        Helpers.job ~id
          ~submit:(Float.of_int (10 * id))
          ~nodes:(1 + (id * 17 mod 48))
          ~runtime:(300.0 +. Float.of_int (97 * id))
          ())
  in
  let calls ~free =
    let asked = ref [] in
    let ctx =
      context ~now:1000.0 ~capacity:128 ~waiting
        ~running:[ (100, 128 - free, 0.0, 3600.0) ]
        ()
    in
    let r_star (j : Workload.Job.t) =
      asked := j.id :: !asked;
      j.runtime
    in
    let started = Backfill.fcfs.Policy.decide { ctx with r_star } in
    (List.rev !asked, started)
  in
  let asked, started = calls ~free:0 in
  Alcotest.(check (list int)) "full machine: the reserved head only" [ 0 ]
    asked;
  Alcotest.(check int) "full machine: nothing starts" 0 (List.length started);
  List.iter
    (fun free ->
      let asked, started = calls ~free in
      let head =
        List.find
          (fun (j : Workload.Job.t) -> not (List.memq j started))
          waiting
      in
      let expected =
        List.filter_map
          (fun (j : Workload.Job.t) ->
            if j.nodes <= free || j == head then Some j.id else None)
          waiting
      in
      Alcotest.(check bool)
        (Printf.sprintf "%d free: asked [%s] within the head and jobs <= %d wide"
           free
           (String.concat "," (List.map string_of_int asked))
           free)
        true
        (List.for_all (fun id -> List.mem id expected) asked
        && List.sort_uniq compare asked = List.sort compare asked
        && List.mem head.id asked))
    [ 1; 4; 9; 30 ]

(* --- The floor's start test against a window scan --- *)

(* [Backfill.pass]'s contract with the start test done by a scan of
   the segment list ([Helpers.fits_window]) for every job, as the
   removed [Profile.fits_at] did, and each reservation placed at the
   naive earliest start ([Helpers.earliest_start]). *)
let scan_pass profile ~now ~r_star ~reserve jobs =
  let start_now = ref [] and reserved = ref [] in
  List.iter
    (fun (j : Workload.Job.t) ->
      let duration = Float.max (r_star j) 1.0 in
      if Helpers.fits_window profile ~at:now ~nodes:j.nodes ~duration then begin
        Cluster.Profile.reserve profile ~at:now ~nodes:j.nodes ~duration;
        start_now := j :: !start_now
      end
      else if reserve j then begin
        let at = Helpers.earliest_start profile ~nodes:j.nodes ~duration in
        Cluster.Profile.reserve profile ~at ~nodes:j.nodes ~duration;
        reserved := (j, at) :: !reserved
      end)
    jobs;
  (List.rev !start_now, List.rev !reserved)

(* A profile that begins at [now], as every policy's does, with several
   dips, every boundary after [now] on a 10 s grid from it; some dips
   begin at [now] itself.  Runtimes are either the distance from [now]
   to a boundary, so a window ends exactly where a step begins, or
   multiples of 5 s, some below the 1 s floor.  Every sum is exact. *)
let random_floor_case rng =
  let now = 1005.0 in
  let capacity = 4 + Simcore.Rng.int rng 29 in
  let profile = Cluster.Profile.create ~now ~capacity in
  for _ = 1 to 2 + Simcore.Rng.int rng 6 do
    let at = now +. (10.0 *. float_of_int (Simcore.Rng.int rng 40)) in
    let duration = 10.0 *. float_of_int (1 + Simcore.Rng.int rng 20) in
    let nodes = 1 + Simcore.Rng.int rng capacity in
    if Helpers.fits_window profile ~at ~nodes ~duration then
      Cluster.Profile.reserve profile ~at ~nodes ~duration
  done;
  let boundaries =
    Array.of_list
      (List.filter_map
         (fun (t, _) -> if t > now then Some t else None)
         (Cluster.Profile.segments profile))
  in
  let waiting =
    List.init
      (1 + Simcore.Rng.int rng 20)
      (fun id ->
        let runtime =
          match Simcore.Rng.int rng 3 with
          | 0 when Array.length boundaries > 0 ->
              boundaries.(Simcore.Rng.int rng (Array.length boundaries)) -. now
          | 1 -> 0.5
          | _ -> 5.0 *. float_of_int (1 + Simcore.Rng.int rng 100)
        in
        Workload.Job.v ~id
          ~submit:(Simcore.Rng.float rng now)
          ~nodes:(1 + Simcore.Rng.int rng capacity)
          ~runtime ~requested:runtime)
  in
  (profile, now, waiting)

(* Reserve rules, each a fresh predicate per pass: the first k blocked
   jobs, Selective's starved jobs, and a seeded coin. *)
let floor_rules ~now ~seed =
  let first k () = Oracle.first k in
  [ first 0; first 1; first 2; first max_int;
    (fun () j -> Priority.expansion_factor ~now ~r_star j >= 3.0);
    (fun () ->
      let coin = Simcore.Rng.create ~seed in
      fun _ -> Simcore.Rng.int coin 2 = 0) ]

let prop_pass_matches_window_scan =
  QCheck.Test.make ~name:"pass = per-job window scan" ~count:300 QCheck.int
    (fun seed ->
      let profile, now, waiting =
        random_floor_case (Simcore.Rng.create ~seed)
      in
      List.for_all
        (fun rule ->
          let real = Cluster.Profile.copy profile
          and naive = Cluster.Profile.copy profile in
          let plan = Backfill.pass real ~now ~r_star ~reserve:(rule ()) waiting in
          let start_now, reserved =
            scan_pass naive ~now ~r_star ~reserve:(rule ()) waiting
          in
          let ids = List.map (fun (j : Workload.Job.t) -> j.id) in
          let held = List.map (fun ((j : Workload.Job.t), s) -> (j.id, s)) in
          ids plan.start_now = ids start_now
          && held plan.reserved = held reserved
          && List.for_all (fun (_, s) -> s >= now) plan.reserved
          && Cluster.Profile.segments real = Cluster.Profile.segments naive)
        (floor_rules ~now ~seed))

(* The pass reads the nodes free at [now] off the profile's first
   segment, which holds them only if the profile begins at [now]. *)
let test_pass_refuses_other_profiles () =
  let job = Helpers.job ~id:1 ~nodes:2 ~runtime:60.0 () in
  List.iter
    (fun start ->
      let profile = Cluster.Profile.create ~now:start ~capacity:8 in
      Alcotest.check_raises
        (Printf.sprintf "profile from %g, now 100" start)
        (Invalid_argument "Profile.free_now: the profile does not begin at now")
        (fun () ->
          ignore
            (Backfill.pass profile ~now:100.0 ~r_star ~reserve:(fun _ -> true)
               [ job ])))
    [ 0.0; 99.5; 100.5 ];
  let profile = Cluster.Profile.create ~now:100.0 ~capacity:8 in
  Alcotest.(check int) "from now: starts" 1
    (List.length
       (Backfill.pass profile ~now:100.0 ~r_star ~reserve:(fun _ -> true) [ job ])
         .start_now)

let suite =
  [
    Alcotest.test_case "fcfs priority" `Quick test_fcfs_priority;
    Alcotest.test_case "sjf priority" `Quick test_sjf_priority;
    Alcotest.test_case "lxf priority" `Quick test_lxf_priority;
    Alcotest.test_case "expansion factor" `Quick test_expansion_factor;
    Alcotest.test_case "lxf&w weights waiters" `Quick test_lxf_w_prefers_waiters;
    Alcotest.test_case "backfill starts what fits" `Quick
      test_backfill_starts_what_fits;
    Alcotest.test_case "backfill reserves blocked head" `Quick
      test_backfill_reserves_blocked_head;
    Alcotest.test_case "backfill respects reservation" `Quick
      test_backfill_respects_reservation;
    Alcotest.test_case "backfill uses reservation slack" `Quick
      test_backfill_long_backfill_behind_reservation;
    Alcotest.test_case "priority order matters" `Quick
      test_backfill_priority_order_matters;
    Alcotest.test_case "policy names" `Quick test_policy_names;
    Alcotest.test_case "run-now policy" `Quick test_run_now_policy;
    Helpers.qcheck prop_backfill_preserves_reservation;
    Helpers.qcheck prop_sort_skip_matches_sort;
    Helpers.qcheck prop_keyed_order_matches_compare;
    Helpers.qcheck prop_selective_unreachable_is_run_now;
    Helpers.qcheck prop_no_reservation_backfill_is_run_now;
    Helpers.qcheck prop_selective_zero_is_conservative;
    Alcotest.test_case "FCFS decide allocation bound" `Quick
      test_fcfs_decide_allocation;
    Alcotest.test_case "wide jobs skip estimated runtime" `Quick
      test_wide_jobs_skip_r_star;
    Helpers.qcheck prop_pass_matches_window_scan;
    Alcotest.test_case "pass refuses a profile not from now" `Quick
      test_pass_refuses_other_profiles;
  ]
