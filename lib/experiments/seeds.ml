let month_label = "9/03"
let seeds = [ 42; 1001; 2002; 3003 ]

let scenario seed =
  let profile = Workload.Month_profile.find month_label in
  let load = Common.Rho 0.9 in
  {
    Common.key =
      Printf.sprintf "%s+seed=%d/%s" month_label seed (Common.load_label load);
    build = (fun () -> Common.month_trace ~seed profile load);
  }

let run fmt =
  Common.section fmt ~id:"seeds"
    (Printf.sprintf
       "Seed sensitivity: month %s at rho=0.9 across generator seeds"
       month_label);
  Headline.prefetch (List.map scenario seeds);
  let all_pass = ref true in
  List.iter
    (fun seed ->
      let runs = Headline.runs (scenario seed) in
      Format.fprintf fmt "@.seed %d:@." seed;
      Headline.pp_table fmt runs;
      let stable = List.for_all snd (Headline.relations runs) in
      if not stable then all_pass := false;
      Format.fprintf fmt "[%s] headline ordering holds for seed %d@."
        (if stable then "PASS" else "FAIL")
        seed)
    seeds;
  Format.fprintf fmt "@.[%s] ordering stable across all %d seeds@."
    (if !all_pass then "PASS" else "FAIL")
    (List.length seeds)
