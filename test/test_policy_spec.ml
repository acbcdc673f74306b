(* Tests for the textual policy-spec parser and experiment plumbing. *)

let parse spec = Experiments.Policy_spec.parse ~budget:500 spec

let policy_of spec =
  match parse spec with
  | Ok p -> p
  | Error e -> Alcotest.failf "expected %s to parse, got: %s" spec e

let name_of spec = (policy_of spec).Sched.Policy.name

let test_backfill_specs () =
  Alcotest.(check string) "fcfs-bf" "FCFS-backfill" (name_of "fcfs-bf");
  Alcotest.(check string) "lxf-bf" "LXF-backfill" (name_of "lxf-bf");
  Alcotest.(check string) "sjf-bf" "SJF-backfill" (name_of "sjf-bf");
  Alcotest.(check bool) "case insensitive" true
    (name_of "FCFS-BF" = "FCFS-backfill")

let test_variant_specs () =
  Alcotest.(check bool) "selective" true
    (Helpers.contains (name_of "selective") "selective-backfill");
  Alcotest.(check bool) "conservative" true
    (Helpers.contains (name_of "conservative") "conservative");
  Alcotest.(check string) "run-now" "run-now" (name_of "run-now")

let test_search_specs () =
  Alcotest.(check string) "headline" "DDS/lxf/dynB(L=500)"
    (name_of "dds/lxf/dynb");
  Alcotest.(check string) "lds fixed" "LDS/fcfs/w=50h(L=500)"
    (name_of "lds/fcfs/w=50");
  Alcotest.(check string) "runtime bound" "DDS/lxf/rtB(1h+2T)(L=500)"
    (name_of "dds/lxf/rt=1:2");
  Alcotest.(check string) "options" "DDS/lxf/dynB(L=500)+bnb+ls"
    (name_of "dds/lxf/dynb+bnb+ls");
  Alcotest.(check string) "fairshare option" "DDS/lxf/dynB(L=500)+fair(2)"
    (name_of "dds/lxf/dynb+fair")

let test_bad_specs () =
  List.iter
    (fun spec ->
      match parse spec with
      | Ok _ -> Alcotest.failf "expected %S to be rejected" spec
      | Error _ -> ())
    [ "nonsense"; "dds/lxf"; "dds/nope/dynb"; "nope/lxf/dynb";
      "dds/lxf/w=abc"; "dds/lxf/rt=1"; "dds/lxf/w=-5"; "relaxed"; "lookahead" ]

let test_known_all_parse () =
  List.iter
    (fun spec ->
      match parse spec with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "known spec %S failed: %s" spec e)
    Experiments.Policy_spec.known

(* Each backfill policy's promise on one queue: on an empty 128-node
   machine, A (2 nodes, 1 h), B (128 nodes, 1 h) and C (126 nodes,
   10 h) wait in that order.  Starting C beside A delays B by 9 h; a
   reservation for the first blocked job forbids that, and only the
   policies that reserve no one yet start [A; C].  A known name missing
   from both lists fails, so a new variant must state its promise. *)
let test_backfill_promises () =
  let job id nodes hours =
    Helpers.job ~id ~submit:(float_of_int id) ~nodes
      ~runtime:(Simcore.Units.hours hours) ()
  in
  let waiting = [ job 0 2 1.0; job 1 128 1.0; job 2 126 10.0 ] in
  let promise = function
    | "fcfs-bf" | "lxf-bf" | "sjf-bf" | "lxfw-bf" | "conservative"
    | "multi-queue" ->
        [ 0 ]
    | "selective" | "run-now" -> [ 0; 2 ]
    | spec -> Alcotest.failf "%S states no promise on the A/B/C case" spec
  in
  List.iter
    (fun spec ->
      if not (String.contains spec '/') then
        let ctx =
          { Sched.Policy.now = 2.0; waiting;
            running =
              Cluster.Running_set.create ~machine:(Cluster.Machine.v ~nodes:128);
            r_star = (fun j -> j.Workload.Job.runtime) }
        in
        Alcotest.(check (list int)) spec (promise spec)
          (List.map
             (fun (j : Workload.Job.t) -> j.id)
             ((policy_of spec).Sched.Policy.decide ctx)))
    Experiments.Policy_spec.known

let test_common_load_labels () =
  Alcotest.(check string) "original" "original"
    (Experiments.Common.load_label Experiments.Common.Original);
  Alcotest.(check string) "rho" "rho=0.90"
    (Experiments.Common.load_label (Experiments.Common.Rho 0.9))

let test_common_months_default () =
  (* no REPRO_MONTHS in the test environment: all ten months *)
  match Sys.getenv_opt "REPRO_MONTHS" with
  | Some _ -> ()
  | None ->
      Alcotest.(check int) "ten months" 10
        (List.length (Experiments.Common.months ()))

let test_common_memoization () =
  let m = Workload.Month_profile.find "8/03" in
  (* same physical trace returned on repeated calls *)
  let a = Experiments.Common.trace m Experiments.Common.Original in
  let b = Experiments.Common.trace m Experiments.Common.Original in
  Alcotest.(check bool) "trace memoized" true (a == b);
  (* the run cache keys on scenario, estimator and policy name: a second
     request for the same scenario reuses the run and its trace *)
  let builds = ref 0 in
  let scenario =
    {
      Experiments.Common.key = "memo-test/original";
      build =
        (fun () ->
          incr builds;
          Helpers.mini_trace ~seed:3 ());
    }
  in
  let simulate policy =
    Experiments.Common.simulate_scenario ~policy ~r_star:Sim.Engine.Actual
      scenario
  in
  let run1 = simulate (fun () -> Sched.Backfill.run_now) in
  let run2 = simulate (fun () -> Sched.Backfill.run_now) in
  Alcotest.(check bool) "run memoized" true (run1 == run2);
  let run3 = simulate (fun () -> Sched.Backfill.fcfs) in
  Alcotest.(check bool) "other policy, other run" true (run3 != run1);
  Alcotest.(check int) "trace built once" 1 !builds

let suite =
  [
    Alcotest.test_case "backfill specs" `Quick test_backfill_specs;
    Alcotest.test_case "variant specs" `Quick test_variant_specs;
    Alcotest.test_case "search specs" `Quick test_search_specs;
    Alcotest.test_case "bad specs rejected" `Quick test_bad_specs;
    Alcotest.test_case "all known specs parse" `Quick test_known_all_parse;
    Alcotest.test_case "backfill promises on A/B/C" `Quick
      test_backfill_promises;
    Alcotest.test_case "load labels" `Quick test_common_load_labels;
    Alcotest.test_case "months default" `Quick test_common_months_default;
    Alcotest.test_case "memoization" `Slow test_common_memoization;
  ]
