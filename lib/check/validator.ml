let sprintf = Printf.sprintf

(* The engine treats events within 1 ns of a decision point as
   simultaneous (the "Event order" paragraph of engine.mli); the replay
   must group identically or differential comparison sees phantom
   decisions. *)
let drain_window = 1e-9

(* Comparison slack for derived quantities (durations, promised starts).
   Start/finish times themselves are compared through [drain_window]
   because the engine computes them by pure addition. *)
let tol = 1e-6

type expectation =
  | Generic
  | Easy_backfill of { reservations : int; priority : Sched.Priority.t }

let expectation_of_policy name =
  let name = String.lowercase_ascii name in
  let base, reservations =
    match String.index_opt name '/' with
    | Some i
      when String.length name >= i + 6
           && String.sub name (i + 1) 4 = "res=" -> (
        let k = String.sub name (i + 5) (String.length name - i - 5) in
        match int_of_string_opt k with
        | Some r when r >= 1 -> (String.sub name 0 i, Some r)
        | _ -> (name, None))
    | _ -> (name, Some 1)
  in
  match (reservations, base) with
  | Some reservations, "fcfs-backfill" ->
      Easy_backfill { reservations; priority = Sched.Priority.fcfs }
  | Some reservations, "lxf-backfill" ->
      Easy_backfill { reservations; priority = Sched.Priority.lxf }
  | Some reservations, "sjf-backfill" ->
      Easy_backfill { reservations; priority = Sched.Priority.sjf }
  | _ -> Generic

(* Replay events, exactly the engine's two kinds. *)
type event = Arrive of Workload.Job.t | Depart of Metrics.Outcome.t

let pp_ids ids = String.concat "," (List.map string_of_int ids)

let validate ?(machine = Cluster.Machine.titan) ?(expect = Generic)
    ?(r_star =
      fun (j : Workload.Job.t) -> Float.min j.runtime j.requested)
    ~subject ~trace ~(outcomes : Metrics.Outcome.t list) () =
  let capacity = machine.Cluster.Machine.nodes in
  let violations = ref [] in
  let violate invariant ~time ~jobs detail =
    violations := { Report.invariant; time; jobs; detail } :: !violations
  in
  let jobs = Workload.Trace.jobs trace in
  (* --- job-completeness: trace jobs <-> outcomes is a bijection --- *)
  let by_id = Hashtbl.create (List.length outcomes) in
  List.iter
    (fun (o : Metrics.Outcome.t) ->
      let id = o.job.Workload.Job.id in
      if Hashtbl.mem by_id id then
        violate "job-completeness" ~time:o.start ~jobs:[ id ]
          "job has more than one outcome"
      else Hashtbl.add by_id id o)
    outcomes;
  let in_trace = Hashtbl.create (Array.length jobs) in
  Array.iter
    (fun (j : Workload.Job.t) ->
      Hashtbl.replace in_trace j.id ();
      if not (Hashtbl.mem by_id j.id) then
        violate "job-completeness" ~time:j.submit ~jobs:[ j.id ]
          "trace job has no outcome")
    jobs;
  List.iter
    (fun (o : Metrics.Outcome.t) ->
      if not (Hashtbl.mem in_trace o.job.id) then
        violate "job-completeness" ~time:o.start ~jobs:[ o.job.id ]
          "outcome for a job that is not in the trace")
    outcomes;
  (* --- per-outcome invariants --- *)
  List.iter
    (fun (o : Metrics.Outcome.t) ->
      let j = o.job in
      if j.nodes > capacity then
        violate "job-fits-machine" ~time:o.start ~jobs:[ j.id ]
          (sprintf "needs %d nodes on a %d-node machine" j.nodes capacity);
      if o.start < j.submit -. drain_window then
        violate "start-after-submit" ~time:o.start ~jobs:[ j.id ]
          (sprintf "started %.3f s before its submission" (j.submit -. o.start));
      let duration = Float.min j.runtime j.requested in
      if Float.abs (o.finish -. o.start -. duration) > tol then
        violate "exact-runtime" ~time:o.start ~jobs:[ j.id ]
          (sprintf "held its nodes for %.3f s, expected min(T, R) = %.3f s"
             (o.finish -. o.start) duration))
    outcomes;
  (* --- capacity: sweep node-usage deltas; at equal times releases
     (negative deltas) apply before acquisitions, as the engine drains
     all departures before deciding. --- *)
  let deltas =
    List.concat_map
      (fun (o : Metrics.Outcome.t) ->
        [
          (o.start, o.job.Workload.Job.nodes, o.job.id);
          (o.finish, -o.job.Workload.Job.nodes, o.job.id);
        ])
      outcomes
    |> List.sort (fun (t1, d1, _) (t2, d2, _) ->
           match Float.compare t1 t2 with 0 -> compare d1 d2 | c -> c)
  in
  let (_ : int) =
    List.fold_left
      (fun used (time, delta, id) ->
        let used = used + delta in
        if delta > 0 && used > capacity then
          violate "capacity" ~time ~jobs:[ id ]
            (sprintf "%d nodes in use on a %d-node machine" used capacity);
        used)
      0 deltas
  in
  (* --- decision points: arrivals and departures, grouped as the
     engine's drain loop groups them. --- *)
  let n = Array.length jobs in
  let events =
    let arrivals =
      Array.to_list
        (Array.mapi
           (fun i (j : Workload.Job.t) -> (j.submit, i, Arrive j))
           jobs)
    in
    let departures =
      List.mapi
        (fun i (o : Metrics.Outcome.t) -> (o.finish, n + i, Depart o))
        outcomes
    in
    List.sort
      (fun (t1, s1, _) (t2, s2, _) ->
        match Float.compare t1 t2 with 0 -> compare s1 s2 | c -> c)
      (arrivals @ departures)
  in
  let groups =
    List.fold_left
      (fun acc (t, _, e) ->
        match acc with
        | (leader, es) :: rest when t <= leader +. drain_window ->
            (leader, e :: es) :: rest
        | _ -> (t, [ e ]) :: acc)
      [] events
    |> List.rev_map (fun (leader, es) -> (leader, List.rev es))
  in
  let decisions = List.length groups in
  let leaders = Array.of_list (List.map fst groups) in
  (* start-at-decision-point: every start time must be the leader time of
     some decision group. *)
  let starts_at_leader s =
    let m = Array.length leaders in
    if m = 0 then false
    else
      let rec bs lo hi =
        if hi - lo <= 1 then lo
        else
          let mid = (lo + hi) / 2 in
          if leaders.(mid) <= s then bs mid hi else bs lo mid
      in
      let i = bs 0 m in
      Float.abs (leaders.(i) -. s) <= drain_window
      || (i + 1 < m && Float.abs (leaders.(i + 1) -. s) <= drain_window)
  in
  List.iter
    (fun (o : Metrics.Outcome.t) ->
      if not (starts_at_leader o.start) then
        violate "start-at-decision-point" ~time:o.start ~jobs:[ o.job.id ]
          "started between decision points (no arrival or departure there)")
    outcomes;
  let legal = !violations = [] in
  (* --- differential replay of the EASY backfill engine --- *)
  (match expect with
  | Generic -> ()
  | Easy_backfill _ when not legal ->
      (* An illegal schedule cannot be replayed faithfully (the running
         set would reject it); the generic violations already tell the
         story. *)
      ()
  | Easy_backfill { reservations; priority } -> (
      let track_promises = priority.Sched.Priority.name = "fcfs" in
      let running = Cluster.Running_set.create ~machine in
      let waiting = ref [] in
      let promises : (int, float) Hashtbl.t = Hashtbl.create 64 in
      let started =
        Array.of_list
          (List.stable_sort
             (fun (a : Metrics.Outcome.t) (b : Metrics.Outcome.t) ->
               Float.compare a.start b.start)
             outcomes)
      in
      let cursor = ref 0 in
      try
        List.iter
          (fun (now, es) ->
            List.iter
              (function
                | Arrive j -> waiting := !waiting @ [ j ]
                | Depart (o : Metrics.Outcome.t) ->
                    let (_ : Cluster.Running_set.entry) =
                      Cluster.Running_set.remove running ~id:o.job.id
                    in
                    ())
              es;
            let ctx =
              { Sched.Policy.now; waiting = !waiting; running; r_star }
            in
            let plan = Sched.Backfill.plan ~reservations ~priority ctx in
            let actual = ref [] in
            while
              !cursor < Array.length started
              && started.(!cursor).Metrics.Outcome.start <= now +. drain_window
            do
              actual := started.(!cursor) :: !actual;
              incr cursor
            done;
            let actual = List.rev !actual in
            let planned_ids =
              List.map
                (fun (j : Workload.Job.t) -> j.id)
                plan.Sched.Backfill.start_now
            in
            let actual_ids =
              List.map (fun (o : Metrics.Outcome.t) -> o.job.id) actual
            in
            if planned_ids <> actual_ids then
              violate "backfill-differential" ~time:now
                ~jobs:(List.sort_uniq compare (planned_ids @ actual_ids))
                (sprintf "reference plan starts [%s], schedule starts [%s]"
                   (pp_ids planned_ids) (pp_ids actual_ids));
            if track_promises then
              List.iter
                (fun ((j : Workload.Job.t), promised) ->
                  match Hashtbl.find_opt promises j.id with
                  | None -> Hashtbl.replace promises j.id promised
                  | Some p ->
                      if promised > p +. tol then
                        violate "easy-reservation-monotone" ~time:now
                          ~jobs:[ j.id ]
                          (sprintf
                             "promised start slipped from %.3f to %.3f" p
                             promised);
                      Hashtbl.replace promises j.id (Float.min p promised))
                plan.Sched.Backfill.reserved;
            List.iter
              (fun (o : Metrics.Outcome.t) ->
                let j = o.job in
                waiting :=
                  List.filter
                    (fun (w : Workload.Job.t) -> w.id <> j.id)
                    !waiting;
                Cluster.Running_set.add running
                  {
                    job = j;
                    start = o.start;
                    finish = o.finish;
                    est_finish = o.start +. r_star j;
                  };
                if track_promises then
                  match Hashtbl.find_opt promises j.id with
                  | None -> ()
                  | Some p ->
                      if o.start > p +. tol then
                        violate "easy-reservation-bound" ~time:now
                          ~jobs:[ j.id ]
                          (sprintf
                             "reserved job started %.3f s after its \
                              promised start %.3f"
                             (o.start -. p) p);
                      Hashtbl.remove promises j.id)
              actual)
          groups
      with exn ->
        violate "replay-failed" ~time:0.0 ~jobs:[]
          (sprintf "differential replay raised: %s" (Printexc.to_string exn))));
  Report.v ~subject ~jobs_checked:(List.length outcomes)
    ~decisions_checked:decisions
    (List.rev !violations)
