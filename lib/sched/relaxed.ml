let policy ?(relaxation = 0.5) () =
  if relaxation < 0.0 then invalid_arg "Relaxed.policy: negative relaxation";
  let name = Printf.sprintf "relaxed-backfill(%.2f)" relaxation in
  Policy.make ~name ~decide:(fun ctx ->
      match ctx.Policy.waiting with
      | [] -> []
      | head :: rest ->
          let now = ctx.now and r_star = ctx.r_star in
          let duration (j : Workload.Job.t) = Float.max (r_star j) 1.0 in
          (* Profile WITHOUT any reservation: candidates are accepted as
             long as the head's recomputed earliest start stays within
             the allowance of its unobstructed earliest start. *)
          let profile = Policy.profile_of ctx in
          let head_d = duration head in
          let unobstructed =
            Cluster.Profile.earliest_start profile ~nodes:head.nodes
              ~duration:head_d
          in
          if unobstructed <= now then
            (* The head runs immediately and every other job that fits
               starts with it.  No job is protected here: unlike EASY,
               the first blocked job behind the head gets no
               reservation. *)
            (Backfill.pass profile ~now ~r_star ~reserve:(fun _ -> false)
               ctx.waiting)
              .start_now
          else begin
            let deadline = unobstructed +. (relaxation *. head_d) in
            let started = ref [] in
            List.iter
              (fun (j : Workload.Job.t) ->
                let d = duration j in
                if Cluster.Profile.fits_at profile ~at:now ~nodes:j.nodes
                     ~duration:d
                then begin
                  (* tentatively start it and check the head's new
                     earliest start against the relaxed deadline; the
                     trail rolls a rejected trial back *)
                  let before = Cluster.Profile.mark profile in
                  Cluster.Profile.reserve profile ~at:now ~nodes:j.nodes
                    ~duration:d;
                  let delayed =
                    Cluster.Profile.earliest_start profile ~nodes:head.nodes
                      ~duration:head_d
                  in
                  if delayed <= deadline +. 1e-6 then started := j :: !started
                  else Cluster.Profile.undo_to profile before
                end)
              rest;
            List.rev !started
          end)
