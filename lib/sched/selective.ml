let policy ?(threshold = 3.0) () =
  Policy.make
    ~name:(Printf.sprintf "selective-backfill(xf>=%.1f)" threshold)
    ~decide:(fun ctx ->
      (* FCFS order; starved jobs (large expansion factor) get
         reservations, everything else backfills around them. *)
      let now = ctx.now and r_star = ctx.r_star in
      let starved j = Priority.expansion_factor ~now ~r_star j >= threshold in
      (Backfill.pass (Policy.profile_of ctx) ~now ~r_star ~reserve:starved
         ctx.waiting)
        .start_now)
