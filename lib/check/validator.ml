let sprintf = Printf.sprintf
let finish = Metrics.Outcome.finish

(* Comparison slack for promised starts, which the reference plan
   derives from estimated durations.  Submit, start and finish times
   are compared exactly: the engine groups events by float equality,
   and a finish is [Outcome.finish] here as in the engine. *)
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

let pp_ids ids = String.concat "," (List.map string_of_int ids)

(* The instants at which anything happens, in time order: a merge of
   the submit-ordered trace, the outcomes by finish and the outcomes
   by start.  [f t ~arrive ~depart ~start] gets, as [(lo, hi)] index
   ranges, the jobs submitted at exactly [t], the outcomes of
   [by_finish] finishing at [t] and those of [by_start] starting at
   [t].  The walk ends at the first time that is not finite. *)
let each_instant ~(jobs : Workload.Job.t array)
    ~(by_finish : Metrics.Outcome.t array)
    ~(by_start : Metrics.Outcome.t array) f =
  let submit (j : Workload.Job.t) = j.submit
  and start (o : Metrics.Outcome.t) = o.start in
  let head a time i = if i < Array.length a then time a.(i) else infinity in
  let rec upto a time (t : float) i =
    if i < Array.length a && time a.(i) = t then upto a time t (i + 1) else i
  in
  let rec go a d s =
    let t =
      Float.min (head jobs submit a)
        (Float.min (head by_finish finish d) (head by_start start s))
    in
    if t < infinity then begin
      let a' = upto jobs submit t a
      and d' = upto by_finish finish t d
      and s' = upto by_start start t s in
      f t ~arrive:(a, a') ~depart:(d, d') ~start:(s, s');
      go a' d' s'
    end
  in
  go 0 0 0

let validate ?(machine = Cluster.Machine.titan) ?(expect = Generic)
    ?(r_star = fun (j : Workload.Job.t) -> j.runtime)
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
      if o.start < j.submit then
        violate "start-after-submit" ~time:o.start ~jobs:[ j.id ]
          (sprintf "started %g s before its submission" (j.submit -. o.start)))
    outcomes;
  (* --- capacity and start-at-decision-point, in one walk over the
     instants.  An instant's departures free their nodes before its
     starts take them, as the engine applies all of an instant's
     events before it decides. --- *)
  let by_start = Array.of_list outcomes in
  Array.stable_sort
    (fun (a : Metrics.Outcome.t) (b : Metrics.Outcome.t) ->
      Float.compare a.start b.start)
    by_start;
  let by_finish = Array.copy by_start in
  Array.stable_sort (fun a b -> Float.compare (finish a) (finish b)) by_finish;
  let each_instant = each_instant ~jobs ~by_finish ~by_start in
  let decisions = ref 0 and used = ref 0 in
  each_instant (fun t ~arrive:(a0, a1) ~depart:(d0, d1) ~start:(s0, s1) ->
      let decision = a1 > a0 || d1 > d0 in
      if decision then incr decisions;
      for i = d0 to d1 - 1 do
        used := !used - by_finish.(i).job.nodes
      done;
      for i = s0 to s1 - 1 do
        let o = by_start.(i) in
        used := !used + o.job.nodes;
        if not decision then
          violate "start-at-decision-point" ~time:t ~jobs:[ o.job.id ]
            "started between decision points (no arrival or departure \
             there)";
        if !used > capacity then
          violate "capacity" ~time:t ~jobs:[ o.job.id ]
            (sprintf "%d nodes in use on a %d-node machine" !used capacity)
      done);
  let legal = List.is_empty !violations in
  (* --- differential replay of the EASY backfill engine, over the same
     instants: on a legal schedule each one is a decision point.  The
     replay calls [Sched.Backfill.plan] itself, so it checks that a
     run followed the EASY engine, not that the engine is right: a bug
     inside [Backfill.pass], its floor-based start test included,
     appears on both sides.  The independent checks of the engine are
     the test oracle [Oracle.reference_backfill] (EASY, conservative and
     selective plans on running-set profiles) and the test-side window
     scan that [Backfill.pass] is held to on arbitrary profiles; the
     benchmark's schedule hashes show a schedule did not move. --- *)
  (match expect with
  | Generic -> ()
  | Easy_backfill _ when not legal ->
      (* An illegal schedule cannot be replayed faithfully (the running
         set would reject it); the generic violations already tell the
         story. *)
      ()
  | Easy_backfill { reservations; priority } -> (
      let track_promises =
        match priority.Sched.Priority.key with
        | Submit_order -> true
        | Keyed _ -> false
      in
      let running = Cluster.Running_set.create ~machine in
      let waiting = ref [] in
      let promises : (int, float) Hashtbl.t = Hashtbl.create 64 in
      try
        each_instant
          (fun now ~arrive:(a0, a1) ~depart:(d0, d1) ~start:(s0, s1) ->
            if a1 > a0 then
              waiting := !waiting @ Array.to_list (Array.sub jobs a0 (a1 - a0));
            (* [by_finish] is a stable sort of the start order, in which
               the replay adds jobs, and the running set lets equal
               finishes leave in the order they were added: its pops
               come in [by_finish] order. *)
            for i = d0 to d1 - 1 do
              let gone = (Cluster.Running_set.pop_finished running).job.id
              and expected = by_finish.(i).job.id in
              if gone <> expected then
                failwith
                  (sprintf "job %d departed where job %d finishes" gone
                     expected)
            done;
            let ctx =
              { Sched.Policy.now; waiting = !waiting; running; r_star }
            in
            let plan = Sched.Backfill.plan ~reservations ~priority ctx in
            let actual = Array.to_list (Array.sub by_start s0 (s1 - s0)) in
            let planned_ids =
              List.map
                (fun (j : Workload.Job.t) -> j.id)
                plan.Sched.Backfill.start_now
            in
            let actual_ids =
              List.map (fun (o : Metrics.Outcome.t) -> o.job.id) actual
            in
            if not (List.equal Int.equal planned_ids actual_ids) then
              violate "backfill-differential" ~time:now
                ~jobs:(List.sort_uniq Int.compare (planned_ids @ actual_ids))
                (sprintf "reference plan starts [%s], schedule starts [%s]"
                   (pp_ids planned_ids) (pp_ids actual_ids));
            (* A promise [p] inside the running set's grace after [now]
               is kept at the grace's end: the profile reports no
               release sooner. *)
            let kept p =
              Float.max p (now +. Cluster.Running_set.overdue_grace)
            in
            if track_promises then
              List.iter
                (fun ((j : Workload.Job.t), promised) ->
                  match Hashtbl.find_opt promises j.id with
                  | None -> Hashtbl.replace promises j.id promised
                  | Some p ->
                      if promised > kept p +. tol then
                        violate "easy-reservation-monotone" ~time:now
                          ~jobs:[ j.id ]
                          (sprintf
                             "promised start slipped from %.17g to %.17g" p
                             promised);
                      Hashtbl.replace promises j.id (Float.min p promised))
                plan.Sched.Backfill.reserved;
            if not (List.is_empty actual) then
              waiting :=
                List.filter
                  (fun (w : Workload.Job.t) ->
                    not (List.exists (Int.equal w.id) actual_ids))
                  !waiting;
            List.iter
              (fun (o : Metrics.Outcome.t) ->
                let j = o.job in
                Cluster.Running_set.add running
                  {
                    job = j;
                    finish = finish o;
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
                             "reserved job started %.17g s after its \
                              promised start %.17g"
                             (o.start -. p) p);
                      Hashtbl.remove promises j.id)
              actual)
      with exn ->
        violate "replay-failed" ~time:0.0 ~jobs:[]
          (sprintf "differential replay raised: %s" (Printexc.to_string exn))));
  Report.v ~subject ~jobs_checked:(List.length outcomes)
    ~decisions_checked:!decisions
    (List.rev !violations)
