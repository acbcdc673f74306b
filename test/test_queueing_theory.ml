(* Validation of the discrete-event engine against queueing theory.

   A single-node machine fed Poisson arrivals of one-node jobs with
   exponential service times under FCFS is an M/M/1 queue; the
   simulated mean wait must match the Pollaczek/Khinchine result
   W_q = rho / (mu - lambda).  This anchors the whole simulation stack
   (event order, decision points, start bookkeeping) to an analytical
   ground truth. *)

let mm1_trace ~seed ~n ~lambda ~mu =
  let rng = Simcore.Rng.create ~seed in
  let arrivals = Simcore.Rng.split rng in
  let services = Simcore.Rng.split rng in
  let clock = ref 0.0 in
  let jobs =
    List.init n (fun id ->
        clock :=
          !clock +. Helpers.exponential arrivals ~mean:(1.0 /. lambda);
        let runtime =
          Float.max 1e-3 (Helpers.exponential services ~mean:(1.0 /. mu))
        in
        Workload.Job.v ~id ~submit:!clock ~nodes:1 ~runtime
          ~requested:(runtime +. 1.0))
  in
  Workload.Trace.v jobs

let test_mm1_mean_wait () =
  let lambda = 0.8 and mu = 1.0 in
  let n = 60_000 in
  let trace = mm1_trace ~seed:271 ~n ~lambda ~mu in
  let result =
    Sim.Engine.run
      ~machine:(Cluster.Machine.v ~nodes:1)
      ~r_star:Sim.Engine.Actual ~policy:Sched.Backfill.fcfs trace
  in
  (* drop warm-up and drain tails *)
  let outcomes =
    List.filteri (fun i _ -> i > n / 10 && i < n * 9 / 10)
      result.Sim.Engine.outcomes
  in
  let mean_wait =
    List.fold_left (fun acc o -> acc +. Metrics.Outcome.wait o) 0.0 outcomes
    /. float_of_int (List.length outcomes)
  in
  let rho = lambda /. mu in
  let expected = rho /. (mu -. lambda) in
  Alcotest.(check bool)
    (Printf.sprintf "M/M/1 W_q: simulated %.3f vs theory %.3f" mean_wait
       expected)
    true
    (Float.abs (mean_wait -. expected) /. expected < 0.10)

let test_mm1_utilization () =
  let lambda = 0.5 and mu = 1.0 in
  let n = 30_000 in
  let trace = mm1_trace ~seed:272 ~n ~lambda ~mu in
  let first = (Workload.Trace.jobs trace).(0).Workload.Job.submit in
  let last =
    (Workload.Trace.jobs trace).(n - 1).Workload.Job.submit
  in
  let windowed =
    Workload.Trace.v
      (Array.to_list (Workload.Trace.jobs trace))
      ~measure_start:first ~measure_end:last
  in
  let run =
    Sim.Run.simulate
      ~machine:(Cluster.Machine.v ~nodes:1)
      ~r_star:Sim.Engine.Actual ~policy:Sched.Backfill.fcfs windowed
  in
  (* server busy fraction must approach rho = 0.5 *)
  Alcotest.(check bool)
    (Printf.sprintf "M/M/1 utilization %.3f ~ 0.5" run.Sim.Run.utilization)
    true
    (Float.abs (run.Sim.Run.utilization -. 0.5) < 0.04)

let suite =
  [
    Alcotest.test_case "M/M/1 mean wait" `Slow test_mm1_mean_wait;
    Alcotest.test_case "M/M/1 utilization" `Slow test_mm1_utilization;
  ]
