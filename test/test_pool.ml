(* Simcore.Pool (domain work pool) and Simcore.Memo (compute-once
   promise table), including the cache-coherence stress test over
   Experiments.Common.simulate. *)

open Simcore

exception Boom of int

let test_map_order () =
  Helpers.with_pool ~jobs:4 (fun pool ->
      let xs = List.init 100 Fun.id in
      Alcotest.(check (list int))
        "results in input order"
        (List.map (fun x -> x * x) xs)
        (Pool.map pool ~f:(fun x -> x * x) xs))

let test_map_exception () =
  Helpers.with_pool ~jobs:4 (fun pool ->
      let raised =
        try
          ignore
            (Pool.map pool
               ~f:(fun x -> if x mod 10 = 3 then raise (Boom x) else x)
               (List.init 50 Fun.id) : int list);
          None
        with Boom x -> Some x
      in
      (* lowest-index failure wins, deterministically *)
      Alcotest.(check (option int)) "first failing item" (Some 3) raised;
      (* the pool survives an exceptional batch *)
      Alcotest.(check (list int))
        "pool usable afterwards" [ 2; 4 ]
        (Pool.map pool ~f:(fun x -> 2 * x) [ 1; 2 ]))

let test_jobs1_degenerate () =
  Helpers.with_pool ~jobs:1 (fun pool ->
      let order = ref [] and caller = Domain.self () in
      Pool.iter pool
        ~f:(fun x ->
          Alcotest.(check bool) "no worker domain" true
            (Domain.self () = caller);
          order := x :: !order)
        [ 1; 2; 3; 4 ];
      (* sequential path: submission order, in the calling domain *)
      Alcotest.(check (list int)) "in-order execution" [ 1; 2; 3; 4 ]
        (List.rev !order))

let test_reuse_across_batches () =
  Helpers.with_pool ~jobs:3 (fun pool ->
      let a = Pool.map pool ~f:(fun x -> x + 1) (List.init 20 Fun.id) in
      let b = Pool.map pool ~f:(fun x -> x * 2) (List.init 30 Fun.id) in
      Alcotest.(check (list int)) "batch 1" (List.init 20 (fun i -> i + 1)) a;
      Alcotest.(check (list int)) "batch 2" (List.init 30 (fun i -> i * 2)) b);
  (* empty batches are fine too *)
  Helpers.with_pool ~jobs:2 (fun pool ->
      Alcotest.(check (list int)) "empty batch" []
        (Pool.map pool ~f:Fun.id []))

let test_shutdown_idempotent () =
  let pool = Pool.create ~jobs:3 in
  Pool.shutdown pool;
  Pool.shutdown pool;
  Alcotest.check_raises "map after shutdown"
    (Invalid_argument "Simcore.Pool: pool is shut down") (fun () ->
      ignore (Pool.map pool ~f:Fun.id [ 1 ] : int list))

let test_memo_compute_once_concurrent () =
  let memo : (int, int) Memo.t = Memo.create () in
  let forcings = Atomic.make 0 in
  let compute key =
    Memo.get memo key (fun () ->
        Atomic.incr forcings;
        (* widen the race window so concurrent callers really overlap *)
        Unix.sleepf 0.02;
        key * 100)
  in
  Helpers.with_pool ~jobs:8 (fun pool ->
      let requests = List.init 64 (fun i -> i mod 4) in
      let results = Pool.map pool ~f:compute requests in
      List.iter2
        (fun k v -> Alcotest.(check int) "value" (k * 100) v)
        requests results);
  Alcotest.(check int) "each key forced exactly once" 4
    (Atomic.get forcings);
  Alcotest.(check int) "table size" 4 (List.length (Memo.bindings memo));
  Memo.clear memo;
  Alcotest.(check int) "cleared" 0 (List.length (Memo.bindings memo))

let test_memo_failure_cached () =
  let memo : (string, int) Memo.t = Memo.create () in
  let forcings = Atomic.make 0 in
  let get () =
    Memo.get memo "k" (fun () ->
        Atomic.incr forcings;
        raise (Boom 7))
  in
  Alcotest.check_raises "first caller" (Boom 7) (fun () -> ignore (get ()));
  Alcotest.check_raises "second caller" (Boom 7) (fun () -> ignore (get ()));
  Alcotest.(check int) "thunk forced once" 1 (Atomic.get forcings)

(* Cache-coherence stress: from 8 domains, request the same and
   overlapping Common.simulate_scenario keys concurrently, one scenario
   per key under one policy name.  Each scenario's trace must be built
   exactly once, each key simulated exactly once (every policy instance
   counts itself on its first decision), and all callers must see the
   same run. *)
let test_common_simulate_stress () =
  Experiments.Common.reset_caches ();
  let n_keys = 4 in
  let builds = Array.init n_keys (fun _ -> Atomic.make 0) in
  let simulations = Array.init n_keys (fun _ -> Atomic.make 0) in
  let scenario k =
    {
      Experiments.Common.key = Printf.sprintf "stress-%d/original" k;
      build =
        (fun () ->
          Atomic.incr builds.(k);
          Helpers.mini_trace ~n:200 ~seed:k ());
    }
  in
  let policy k () =
    let fresh = ref true in
    Sched.Policy.make ~name:"stress" ~decide:(fun ctx ->
        if !fresh then begin
          fresh := false;
          Atomic.incr simulations.(k)
        end;
        Sched.Backfill.run_now.Sched.Policy.decide ctx)
  in
  let request k =
    Experiments.Common.simulate_scenario ~policy:(policy k)
      ~r_star:Sim.Engine.Actual (scenario k)
  in
  let requests = List.init 64 (fun i -> i mod n_keys) in
  let runs =
    Helpers.with_pool ~jobs:8 (fun pool -> Pool.map pool ~f:request requests)
  in
  let once what counts =
    Array.iteri
      (fun k c ->
        Alcotest.(check int)
          (Printf.sprintf "scenario %d %s exactly once" k what)
          1 (Atomic.get c))
      counts
  in
  once "built" builds;
  once "simulated" simulations;
  (* all callers of one key observe the same Sim.Run.t *)
  let canonical = Array.make n_keys None in
  List.iter2
    (fun k run ->
      match canonical.(k) with
      | None -> canonical.(k) <- Some run
      | Some first ->
          Alcotest.(check bool)
            (Printf.sprintf "key %d: same run for every caller" k)
            true (run == first))
    requests runs;
  Experiments.Common.reset_caches ()

let suite =
  [
    Alcotest.test_case "map preserves order" `Quick test_map_order;
    Alcotest.test_case "map propagates exceptions" `Quick test_map_exception;
    Alcotest.test_case "jobs=1 degenerate path" `Quick test_jobs1_degenerate;
    Alcotest.test_case "reuse across batches" `Quick test_reuse_across_batches;
    Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent;
    Alcotest.test_case "memo compute-once under 8 domains" `Quick
      test_memo_compute_once_concurrent;
    Alcotest.test_case "memo failure cached" `Quick test_memo_failure_cached;
    Alcotest.test_case "Common.simulate coherence stress" `Quick
      test_common_simulate_stress;
  ]
