let days = 14.0

let scenario ~seed ~rho =
  {
    Common.key =
      Printf.sprintf "model/seed=%d/%s" seed (Common.load_label (Rho rho));
    build =
      (fun () ->
        Workload.Trace.scale_load
          (Workload.Model.generate ~seed ~days)
          ~capacity:Workload.Month_profile.capacity ~target:rho);
  }

let run fmt =
  Common.section fmt ~id:"robustness"
    "Headline relationships on an uncalibrated parametric workload model";
  let scenarios =
    [ ("seed=1 rho=0.85", scenario ~seed:1 ~rho:0.85);
      ("seed=2 rho=0.90", scenario ~seed:2 ~rho:0.90);
      ("seed=3 rho=0.95", scenario ~seed:3 ~rho:0.95) ]
  in
  Headline.prefetch (List.map snd scenarios);
  List.iter
    (fun (label, s) ->
      Format.fprintf fmt "@.--- %s: %s ---@." label
        (Workload.Trace.concat_stats (Common.scenario_trace s));
      let runs = Headline.runs s in
      Headline.pp_table fmt runs;
      List.iter
        (fun (relation, ok) ->
          Format.fprintf fmt "[%s] %s@." (if ok then "PASS" else "FAIL")
            relation)
        (Headline.relations runs))
    scenarios
