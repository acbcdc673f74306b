(* ISSUE satellite: rendering an experiment with REPRO_JOBS=1 and
   REPRO_JOBS=4 must produce byte-identical formatted output.  The
   pool only warms the compute-once caches; formatting always reads
   the warm cache sequentially, so parallelism must be invisible. *)

let with_env bindings f =
  let saved = List.map (fun (k, _) -> (k, Sys.getenv_opt k)) bindings in
  List.iter (fun (k, v) -> Unix.putenv k v) bindings;
  Fun.protect f ~finally:(fun () ->
      (* putenv "" behaves as unset for every REPRO_* parser *)
      List.iter
        (fun (k, v) -> Unix.putenv k (Option.value v ~default:""))
        saved)

let render experiments =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  List.iter (fun run -> run fmt) experiments;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let test_fig3_fig6_jobs_invariant () =
  (* REPRO_MAXL=1000 keeps fig6 to a single L point; 1/04 is the month
     both figures use. *)
  with_env
    [
      ("REPRO_SCALE", "0.1");
      ("REPRO_MONTHS", "1/04");
      ("REPRO_MAXL", "1000");
    ]
    (fun () ->
      let experiments = [ Experiments.Fig3.run; Experiments.Fig6.run ] in
      let saved_jobs = Experiments.Common.jobs () in
      Fun.protect
        ~finally:(fun () ->
          Experiments.Common.set_jobs saved_jobs;
          Experiments.Common.reset_caches ();
          Experiments.Common.shutdown_pool ())
        (fun () ->
          Experiments.Common.set_jobs 1;
          Experiments.Common.reset_caches ();
          let seq = render experiments in
          Experiments.Common.set_jobs 4;
          Experiments.Common.reset_caches ();
          let par = render experiments in
          Alcotest.(check bool) "sequential render non-empty" true
            (String.length seq > 0);
          Alcotest.(check string) "jobs=1 and jobs=4 byte-identical" seq par))

(* The seeds experiment simulates through Common's run cache like every
   figure does, so the validation switch covers its twelve runs (four
   generator seeds x three policies) without changing a byte of its
   output. *)
let test_seeds_validated () =
  with_env
    [ ("REPRO_SCALE", "0.05") ]
    (fun () ->
      Fun.protect
        ~finally:(fun () ->
          Experiments.Common.set_validation false;
          Experiments.Common.reset_caches ())
        (fun () ->
          Experiments.Common.set_validation false;
          Experiments.Common.reset_caches ();
          let plain = render [ Experiments.Seeds.run ] in
          Experiments.Common.set_validation true;
          Experiments.Common.reset_caches ();
          let validated = render [ Experiments.Seeds.run ] in
          let reports = Experiments.Common.validation_reports () in
          Alcotest.(check int) "12 validated runs" 12 (List.length reports);
          Alcotest.(check bool) "all clean" true
            (List.for_all (fun (_, r) -> Schedcheck.Report.ok r) reports);
          let trace_key key =
            match String.split_on_char '/' key with
            | a :: b :: load :: _ -> String.concat "/" [ a; b; load ]
            | _ -> key
          in
          Alcotest.(check (list string)) "4 trace keys"
            [ "9/03+seed=1001/rho=0.90"; "9/03+seed=2002/rho=0.90";
              "9/03+seed=3003/rho=0.90"; "9/03+seed=42/rho=0.90" ]
            (List.sort_uniq compare
               (List.map (fun (key, _) -> trace_key key) reports));
          Alcotest.(check string) "output unchanged by validation" plain
            validated))

let suite =
  [
    Alcotest.test_case "fig3+fig6 output independent of REPRO_JOBS" `Quick
      test_fig3_fig6_jobs_invariant;
    Alcotest.test_case "seeds runs are validated" `Quick test_seeds_validated;
  ]
