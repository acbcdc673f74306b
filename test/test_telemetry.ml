(* Search telemetry and the decision-trace export: the log2 histogram
   geometry and percentile estimator of Simcore.Metrics, the Search
   probe agrees with Search.result (and with the policy's statistics
   and run metrics under local search), probe recording allocates
   nothing on the hot path, and trace export is independent of the
   domain-pool width. *)

module T = Simcore.Telemetry
module M = Simcore.Metrics

(* --- histogram bucket geometry --- *)

let bucket_boundaries_qcheck =
  QCheck.Test.make ~count:1000 ~name:"histogram bucket_of within [lo, hi]"
    QCheck.int (fun v ->
      let b = M.bucket_of v in
      b >= 0 && b < M.buckets && M.bucket_lo b <= v && v <= M.bucket_hi b)

let test_bucket_edges () =
  (* every bucket's own endpoints map back to it *)
  for b = 0 to M.buckets - 1 do
    Alcotest.(check int)
      (Printf.sprintf "bucket_of (lo %d)" b)
      b (M.bucket_of (M.bucket_lo b));
    Alcotest.(check int)
      (Printf.sprintf "bucket_of (hi %d)" b)
      b (M.bucket_of (M.bucket_hi b))
  done;
  (* the log2 spine: powers of two open a fresh bucket *)
  Alcotest.(check int) "0" 0 (M.bucket_of 0);
  Alcotest.(check int) "1" 1 (M.bucket_of 1);
  Alcotest.(check int) "2" 2 (M.bucket_of 2);
  Alcotest.(check int) "3" 2 (M.bucket_of 3);
  Alcotest.(check int) "4" 3 (M.bucket_of 4);
  Alcotest.(check int) "1024" 11 (M.bucket_of 1024);
  Alcotest.(check int) "max_int" (M.buckets - 1) (M.bucket_of max_int);
  Alcotest.(check int) "negative -> 0" 0 (M.bucket_of (-5))

let test_histogram_observe_percentile () =
  let h = M.histogram (M.create ()) "latency" in
  Alcotest.(check (float 0.0)) "empty percentile" 0.0
    (M.histogram_percentile h 50.0);
  List.iter (M.observe h) [ 1; 2; 4; 8; 1000; 1000 ];
  Alcotest.(check int) "count" 6 (M.histogram_count h);
  Alcotest.(check int) "total" 2015 (M.histogram_total h);
  (* p100 lands in the top occupied bucket; interpolation keeps it
     within that bucket's range *)
  let p100 = M.histogram_percentile h 100.0 in
  Alcotest.(check bool) "p100 in 1000's bucket" true
    (M.bucket_of (int_of_float p100) = M.bucket_of 1000);
  let p50 = M.histogram_percentile h 50.0 in
  Alcotest.(check bool) "p50 below p100" true (p50 <= p100);
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Metrics.histogram_percentile: p out of [0, 100]")
    (fun () -> ignore (M.histogram_percentile h 101.0))

(* --- the Search probe --- *)

let test_probe_matches_result () =
  let probe = T.Probe.create () in
  let state = Experiments.Overhead.synthetic_state ~seed:5 () in
  let r = Core.Search.run ~probe Core.Search.Dds ~budget:2000 state in
  Alcotest.(check int) "nodes" r.Core.Search.nodes_visited probe.T.Probe.nodes;
  Alcotest.(check int) "leaves" r.Core.Search.leaves_evaluated
    probe.T.Probe.leaves;
  Alcotest.(check int) "iterations" r.Core.Search.iterations
    probe.T.Probe.iterations;
  Alcotest.(check bool) "exhausted" r.Core.Search.exhausted
    probe.T.Probe.exhausted;
  Alcotest.(check int) "budget" 2000 probe.T.Probe.budget;
  Alcotest.(check bool) "at least the heuristic incumbent" true
    (probe.T.Probe.improvements >= 1);
  Alcotest.(check bool) "winner iteration sane" true
    (probe.T.Probe.winner_iteration >= 0
    && probe.T.Probe.winner_iteration <= r.Core.Search.iterations + 1)

let test_probe_exhaustive_and_reuse () =
  let probe = T.Probe.create () in
  (* small exhaustive search: the tree fits in the budget *)
  let state = Experiments.Overhead.synthetic_state ~n_waiting:4 ~seed:9 () in
  let r = Core.Search.run ~probe Core.Search.Dds ~budget:1_000_000 state in
  Alcotest.(check bool) "small tree exhausted" true r.Core.Search.exhausted;
  Alcotest.(check bool) "probe exhausted" true probe.T.Probe.exhausted;
  (* the same probe reused on another run is fully overwritten *)
  let state2 = Experiments.Overhead.synthetic_state ~seed:11 () in
  let r2 = Core.Search.run ~probe Core.Search.Dds ~budget:500 state2 in
  Alcotest.(check int) "reused probe tracks second run"
    r2.Core.Search.nodes_visited probe.T.Probe.nodes;
  Alcotest.(check bool) "budget-bound run not exhausted" false
    probe.T.Probe.exhausted;
  T.Probe.reset probe;
  Alcotest.(check int) "reset nodes" 0 probe.T.Probe.nodes;
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
         ~heuristic:Core.Branching.Lxf ~bound:Core.Bound.dynamic ~budget ())
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
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  M.pp_openmetrics fmt metrics;
  Format.pp_print_flush fmt ();
  let line = Printf.sprintf "schedsim_search_nodes_total %d" total in
  Alcotest.(check bool) line true
    (List.mem line (String.split_on_char '\n' (Buffer.contents buf)))

(* --- allocation: the probe must not touch the per-node budget --- *)

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

(* Minor-heap words allocated by one search over a fresh synthetic
   state.  DDS is deterministic, so identical seeds and budgets
   allocate identically — any probe-induced difference shows up as an
   exact word delta. *)
let alloc_words ?probe ~budget () =
  let state = Experiments.Overhead.synthetic_state ~seed:123 () in
  let before = Gc.minor_words () in
  let r = Core.Search.run ?probe Core.Search.Dds ~budget state in
  (Gc.minor_words () -. before, r.Core.Search.nodes_visited)

let test_probe_allocates_nothing () =
  (* warm-up: first run pays one-time lazy setup *)
  ignore (alloc_words ~budget:9000 ());
  let w_off, n_off = alloc_words ~budget:9000 () in
  let probe = T.Probe.create () in
  let w_on, n_on = alloc_words ~probe ~budget:9000 () in
  Alcotest.(check int) "same traversal" n_off n_on;
  Alcotest.(check (float 0.0)) "probe adds exactly 0 words" w_off w_on;
  (* and the whole search stays within a dev-profile allocation
     envelope per node (leaf objective snapshots included) *)
  let per_node = w_on /. float_of_int n_on in
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
  let log = Sim.Decision_log.create ~capacity:4 ~policy:"p" () in
  let probe = T.Probe.create () in
  for i = 0 to 5 do
    probe.T.Probe.nodes <- 100 * i;
    probe.T.Probe.budget <- 1000;
    Sim.Decision_log.observe log
      (decision ~now:(float_of_int i) ~seen:i ~probe:(Some probe))
  done;
  Alcotest.(check int) "recorded" 6 (Sim.Decision_log.recorded log);
  Alcotest.(check int) "dropped" 2 (Sim.Decision_log.dropped log);
  let ds = Sim.Decision_log.decisions log in
  Alcotest.(check (list int)) "oldest dropped, order kept" [ 2; 3; 4; 5 ]
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
    QCheck_alcotest.to_alcotest bucket_boundaries_qcheck;
    Alcotest.test_case "histogram bucket edges" `Quick test_bucket_edges;
    Alcotest.test_case "histogram observe/percentile estimate" `Quick
      test_histogram_observe_percentile;
    Alcotest.test_case "probe agrees with Search.result" `Quick
      test_probe_matches_result;
    Alcotest.test_case "probe exhaustion + reuse + reset" `Quick
      test_probe_exhaustive_and_reuse;
    Alcotest.test_case "probe counts local-search nodes" `Quick
      test_probe_counts_local_search;
    Alcotest.test_case "node visit allocation bounded" `Quick
      test_node_visit_allocation_bounded;
    Alcotest.test_case "probe adds zero allocation" `Quick
      test_probe_allocates_nothing;
    Alcotest.test_case "decision-log ring keeps the newest" `Quick
      test_decision_log_ring;
    Alcotest.test_case "trace export independent of REPRO_JOBS" `Quick
      test_trace_export_jobs_invariant;
  ]
