(* Search telemetry and the decision-trace export: the log2 histogram
   geometry of Simcore.Metrics, read from its exposition, the search
   policy's probe agrees with Search.result (and with the policy's
   statistics and run metrics under local search), the search stays
   within its per-node allocation envelope, and trace export is
   independent of the domain-pool width. *)

module T = Simcore.Telemetry
module M = Simcore.Metrics

(* --- histogram bucket geometry --- *)

(* The upper bound [le] of the one bucket a single observation of [v]
   lands in, read from the exposition: bucket 0 holds values [<= 0],
   bucket [b >= 1] holds [2^(b-1) .. 2^b - 1], the top one up to
   [max_int]. *)
let bucket_le v =
  let reg = M.create () in
  M.observe (M.histogram reg "h") v;
  let prefix = "h_bucket{le=\"" in
  let line =
    List.find
      (fun l -> String.starts_with ~prefix l && not (Helpers.contains l "+Inf"))
      (Helpers.openmetrics_lines reg)
  in
  let n = String.length prefix in
  int_of_string (String.sub line n (String.index_from line n '"' - n))

let bucket_boundaries_qcheck =
  QCheck.Test.make ~count:1000 ~name:"histogram bucket_of within [lo, hi]"
    QCheck.int (fun v ->
      let hi = bucket_le v in
      v <= hi
      && (if v <= 0 then hi = 0 else hi lsr 1 < v)
      && (hi = max_int || hi land (hi + 1) = 0))

let test_bucket_edges () =
  (* every bucket's own endpoints land in it: 63 buckets, 0 .. 62 *)
  Alcotest.(check int) "bucket 0 (lo)" 0 (bucket_le min_int);
  Alcotest.(check int) "bucket 0 (hi)" 0 (bucket_le 0);
  for b = 1 to 62 do
    let hi = if b = 62 then max_int else (1 lsl b) - 1 in
    Alcotest.(check int) (Printf.sprintf "bucket %d (lo)" b) hi
      (bucket_le (1 lsl (b - 1)));
    Alcotest.(check int) (Printf.sprintf "bucket %d (hi)" b) hi (bucket_le hi)
  done;
  (* the log2 spine: powers of two open a fresh bucket *)
  Alcotest.(check int) "1" 1 (bucket_le 1);
  Alcotest.(check int) "2" 3 (bucket_le 2);
  Alcotest.(check int) "3" 3 (bucket_le 3);
  Alcotest.(check int) "4" 7 (bucket_le 4);
  Alcotest.(check int) "1024" 2047 (bucket_le 1024);
  Alcotest.(check int) "negative -> 0" 0 (bucket_le (-5))

let test_histogram_observe () =
  let reg = M.create () in
  let h = M.histogram reg "latency" in
  Alcotest.(check bool) "empty: only +Inf" true
    (List.mem "latency_bucket{le=\"+Inf\"} 0" (Helpers.openmetrics_lines reg));
  List.iter (M.observe h) [ 1; 2; 4; 8; 1000; 1000 ];
  let lines = Helpers.openmetrics_lines reg in
  List.iter
    (fun line -> Alcotest.(check bool) line true (List.mem line lines))
    [ "latency_count 6"; "latency_sum 2015";
      (* cumulative counts over the occupied buckets only *)
      "latency_bucket{le=\"1\"} 1"; "latency_bucket{le=\"3\"} 2";
      "latency_bucket{le=\"7\"} 3"; "latency_bucket{le=\"15\"} 4";
      "latency_bucket{le=\"1023\"} 6"; "latency_bucket{le=\"+Inf\"} 6" ];
  Alcotest.(check bool) "no empty bucket line" false
    (List.mem "latency_bucket{le=\"31\"} 4" lines)

(* --- the Search probe --- *)

(* A decision context over [n] waiting jobs on an idle 64-node machine. *)
let context ~seed ~n =
  let rng = Simcore.Rng.create ~seed in
  let now = 10_000.0 in
  let waiting =
    List.init n (fun id ->
        Helpers.job ~id
          ~submit:(Simcore.Rng.float rng now)
          ~nodes:(1 + Simcore.Rng.int rng 48)
          ~runtime:(60.0 +. Simcore.Rng.float rng 20_000.0)
          ())
  in
  let running =
    Cluster.Running_set.create ~machine:(Cluster.Machine.v ~nodes:64)
  in
  {
    Sched.Policy.now;
    waiting;
    running;
    r_star = (fun j -> j.Workload.Job.runtime);
  }

let headline_policy ~budget =
  let policy, stats =
    Core.Search_policy.policy (Core.Search_policy.dds_lxf_dynb ~budget)
  in
  (policy, stats, Option.get policy.Sched.Policy.probe)

(* The probe after one decision carries every effort field of the
   result of the same search, run directly on the state the headline
   policy builds (lxf order, dynamic bound). *)
let test_probe_matches_result () =
  let budget = 2000 in
  let policy, _, probe = headline_policy ~budget in
  let ctx = context ~seed:5 ~n:12 in
  ignore (policy.Sched.Policy.decide ctx);
  let jobs =
    Array.of_list
      (Sched.Priority.order Sched.Priority.lxf ~now:ctx.now ~r_star:ctx.r_star
         ctx.waiting)
  in
  let state =
    Core.Search_state.create ~now:ctx.now
      ~profile:(Sched.Policy.profile_of ctx) ~jobs
      ~durations:(Array.map ctx.r_star jobs)
      ~thresholds:
        (Core.Bound.thresholds Core.Bound.dynamic ~now:ctx.now
           ~r_star:ctx.r_star jobs)
      ()
  in
  let r = Core.Search.run Core.Search.Dds ~budget state in
  Alcotest.(check int) "nodes" r.Core.Search.nodes_visited probe.T.Probe.nodes;
  Alcotest.(check int) "leaves" r.Core.Search.leaves_evaluated
    probe.T.Probe.leaves;
  Alcotest.(check int) "iterations" r.Core.Search.iterations
    probe.T.Probe.iterations;
  Alcotest.(check bool) "exhausted" r.Core.Search.exhausted
    probe.T.Probe.exhausted;
  Alcotest.(check int) "budget" budget probe.T.Probe.budget;
  Alcotest.(check int) "improvements" r.Core.Search.improvements
    probe.T.Probe.improvements;
  Alcotest.(check int) "winner iteration" r.Core.Search.winner_iteration
    probe.T.Probe.winner_iteration;
  Alcotest.(check int) "winner depth" r.Core.Search.winner_depth
    probe.T.Probe.winner_depth;
  Alcotest.(check bool) "at least the heuristic incumbent" true
    (r.Core.Search.improvements >= 1);
  Alcotest.(check bool) "budget-bound search" false r.Core.Search.exhausted;
  Alcotest.(check bool) "winner iteration sane" true
    (r.Core.Search.winner_iteration >= 0
    && r.Core.Search.winner_iteration <= r.Core.Search.iterations);
  Alcotest.(check int) "DDS winner depth = its forced discrepancy"
    (r.Core.Search.winner_iteration - 1) r.Core.Search.winner_depth

let test_probe_exhaustive_and_reuse () =
  let policy, stats, probe = headline_policy ~budget:500 in
  (* small exhaustive search: the tree fits in the budget *)
  ignore (policy.Sched.Policy.decide (context ~seed:9 ~n:4));
  Alcotest.(check bool) "small tree exhausted" true probe.T.Probe.exhausted;
  (* the same probe at the next decision is fully overwritten *)
  let before = (stats ()).Core.Search_policy.total_nodes in
  ignore (policy.Sched.Policy.decide (context ~seed:11 ~n:12));
  Alcotest.(check int) "reused probe tracks the last decision"
    ((stats ()).Core.Search_policy.total_nodes - before)
    probe.T.Probe.nodes;
  Alcotest.(check bool) "budget-bound decision not exhausted" false
    probe.T.Probe.exhausted;
  T.Probe.reset probe;
  Alcotest.(check int) "reset nodes" 0 probe.T.Probe.nodes;
  Alcotest.(check int) "reset budget" 0 probe.T.Probe.budget;
  Alcotest.(check int) "reset improvements" 0 probe.T.Probe.improvements;
  Alcotest.(check int) "reset winner_depth" (-1) probe.T.Probe.winner_depth

(* Under +ls the policy acts on the local-search result, whose node
   count includes the swap pass: the probe, hence the decision log and
   the run metrics, must report that same count. *)
let test_probe_counts_local_search () =
  let trace =
    Workload.Generator.month
      ~config:{ Workload.Generator.default_config with scale = 0.1; seed = 7 }
      (Workload.Month_profile.find "7/03")
  in
  let budget = 1000 in
  let policy, stats =
    Core.Search_policy.policy
      (Core.Search_policy.v ~local_search:true ~algorithm:Core.Search.Dds
         ~heuristic:Sched.Priority.lxf ~bound:Core.Bound.dynamic ~budget ())
  in
  let log = Sim.Decision_log.create ~policy:policy.Sched.Policy.name () in
  let metrics = M.create () in
  let record = Sim.Run_metrics.observer metrics policy in
  let observe d =
    Sim.Decision_log.observe log d;
    record d
  in
  let _ = Sim.Engine.run ~observe ~r_star:Sim.Engine.Actual ~policy trace in
  let ds = Sim.Decision_log.decisions log in
  (* queues here are far shorter than L, so only an improving swap
     pass can take a decision past its budget *)
  Alcotest.(check bool) "local search improved at least once" true
    (List.exists (fun d -> d.Sim.Decision_log.nodes > budget) ds);
  let logged =
    List.fold_left (fun acc d -> acc + d.Sim.Decision_log.nodes) 0 ds
  in
  let total = (stats ()).Core.Search_policy.total_nodes in
  Alcotest.(check int) "decision log = stats" total logged;
  let line = Printf.sprintf "schedsim_search_nodes_total %d" total in
  Alcotest.(check bool) line true
    (List.mem line (Helpers.openmetrics_lines metrics))

(* --- allocation: nothing per node --- *)

(* The node visit itself: a place/unplace walk with no leaf
   evaluation.  In release this is exactly 0 words (perf-json numbers
   are recorded there); the dev profile pays a few boxed floats at
   uninlined module boundaries (~3 words/node today), so the test
   bounds it rather than pinning zero — a per-node record or closure
   would blow well past the bound. *)
let test_node_visit_allocation_bounded () =
  let st = Experiments.Overhead.synthetic_state ~seed:123 () in
  let depth = 10 in
  let walk () =
    for d = 0 to depth - 1 do
      let j = Core.Search_state.first_unused st in
      Core.Search_state.place st ~depth:d ~job:j
    done;
    for d = depth - 1 downto 0 do Core.Search_state.unplace st ~depth:d done
  in
  walk ();
  (* warm-up *)
  let reps = 500 in
  let before = Gc.minor_words () in
  for _ = 1 to reps do
    walk ()
  done;
  let per_node =
    (Gc.minor_words () -. before) /. float_of_int (reps * 2 * depth)
  in
  Alcotest.(check bool)
    (Printf.sprintf "place/unplace allocates %.2f <= 8 words/node" per_node)
    true (per_node <= 8.0)

(* The whole search stays within a dev-profile allocation envelope per
   node (leaf objective snapshots included).  The search writes no
   probe: its effort counters are ints in its own driver, bumped at
   leaves, and the policy copies them into its probe once per
   decision. *)
let test_search_allocation_bounded () =
  let words () =
    let state = Experiments.Overhead.synthetic_state ~seed:123 () in
    let before = Gc.minor_words () in
    let r = Core.Search.run Core.Search.Dds ~budget:9000 state in
    (Gc.minor_words () -. before, r.Core.Search.nodes_visited)
  in
  (* warm-up: first run pays one-time lazy setup *)
  ignore (words ());
  let w, nodes = words () in
  let per_node = w /. float_of_int nodes in
  Alcotest.(check bool)
    (Printf.sprintf "search allocates %.2f <= 64 words/node" per_node)
    true (per_node <= 64.0)

(* --- decision-log ring buffer --- *)

(* A decision that saw [seen] waiting jobs and started none. *)
let decision ~now ~seen ~probe : Sim.Engine.decision =
  {
    now;
    seen;
    started = [];
    queue = seen;
    demand = 0;
    max_wait = 0.0;
    busy = 0;
    running = 0;
    probe;
  }

let test_decision_log_ring () =
  (* the ring holds the latest 65,536 decisions; feed two more *)
  let capacity = 1 lsl 16 in
  let log = Sim.Decision_log.create ~policy:"p" () in
  let probe = T.Probe.create () in
  for i = 0 to capacity + 1 do
    probe.T.Probe.nodes <- 100 * i;
    probe.T.Probe.budget <- 1000;
    Sim.Decision_log.observe log
      (decision ~now:(float_of_int i) ~seen:i ~probe:(Some probe))
  done;
  Alcotest.(check int) "recorded" (capacity + 2)
    (Sim.Decision_log.recorded log);
  Alcotest.(check int) "dropped" 2 (Sim.Decision_log.dropped log);
  let ds = Sim.Decision_log.decisions log in
  Alcotest.(check (list int)) "oldest dropped, order kept"
    (List.init capacity (fun i -> i + 2))
    (List.map (fun d -> d.Sim.Decision_log.seq) ds);
  Alcotest.(check int) "probe snapshotted, not aliased" 200
    (List.hd ds).Sim.Decision_log.nodes;
  (* a decision without a probe records zero search effort *)
  Sim.Decision_log.observe log (decision ~now:7.0 ~seen:0 ~probe:None);
  let last = List.hd (List.rev (Sim.Decision_log.decisions log)) in
  Alcotest.(check bool) "unsearched" false last.Sim.Decision_log.searched;
  Alcotest.(check int) "no nodes" 0 last.Sim.Decision_log.nodes

(* --- trace export is pool-width independent --- *)

let with_env bindings f =
  let saved = List.map (fun (k, _) -> (k, Sys.getenv_opt k)) bindings in
  List.iter (fun (k, v) -> Unix.putenv k v) bindings;
  Fun.protect f ~finally:(fun () ->
      List.iter
        (fun (k, v) -> Unix.putenv k (Option.value v ~default:""))
        saved)

let test_trace_export_jobs_invariant () =
  with_env
    [
      ("REPRO_SCALE", "0.1");
      ("REPRO_MONTHS", "1/04");
      ("REPRO_MAXL", "1000");
    ]
    (fun () ->
      let saved_jobs = Experiments.Common.jobs () in
      Fun.protect
        ~finally:(fun () ->
          Experiments.Common.set_tracing false;
          Experiments.Common.set_jobs saved_jobs;
          Experiments.Common.reset_caches ();
          Experiments.Common.shutdown_pool ())
        (fun () ->
          Experiments.Common.set_tracing true;
          let render jobs =
            Experiments.Common.set_jobs jobs;
            Experiments.Common.reset_caches ();
            (* warm the run cache through the pool; discard the tables *)
            let sink = Buffer.create 4096 in
            let sfmt = Format.formatter_of_buffer sink in
            Experiments.Fig3.run sfmt;
            Format.pp_print_flush sfmt ();
            let buf = Buffer.create 4096 in
            let fmt = Format.formatter_of_buffer buf in
            Experiments.Common.pp_traces fmt;
            Format.pp_print_flush fmt ();
            (Buffer.contents buf, Experiments.Common.chrome_trace_document ())
          in
          let jsonl_seq, chrome_seq = render 1 in
          let jsonl_par, chrome_par = render 4 in
          Alcotest.(check bool) "traced something" true
            (String.length jsonl_seq > 0);
          let contains hay needle =
            let n = String.length hay and m = String.length needle in
            let rec go i =
              i + m <= n && (String.sub hay i m = needle || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool) "jsonl carries the schema" true
            (contains jsonl_seq "decision_trace/1");
          Alcotest.(check string) "JSONL independent of jobs" jsonl_seq
            jsonl_par;
          Alcotest.(check string) "Chrome view independent of jobs"
            chrome_seq chrome_par))

let suite =
  [
    Helpers.qcheck bucket_boundaries_qcheck;
    Alcotest.test_case "histogram bucket edges" `Quick test_bucket_edges;
    Alcotest.test_case "histogram observe: count, sum, cumulative buckets" `Quick
      test_histogram_observe;
    Alcotest.test_case "probe agrees with Search.result" `Quick
      test_probe_matches_result;
    Alcotest.test_case "probe exhaustion + reuse + reset" `Quick
      test_probe_exhaustive_and_reuse;
    Alcotest.test_case "probe counts local-search nodes" `Quick
      test_probe_counts_local_search;
    Alcotest.test_case "node visit allocation bounded" `Quick
      test_node_visit_allocation_bounded;
    Alcotest.test_case "search allocation per node" `Quick
      test_search_allocation_bounded;
    Alcotest.test_case "decision-log ring keeps the newest" `Quick
      test_decision_log_ring;
    Alcotest.test_case "trace export independent of REPRO_JOBS" `Quick
      test_trace_export_jobs_invariant;
  ]
