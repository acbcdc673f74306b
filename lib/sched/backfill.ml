type plan = {
  start_now : Workload.Job.t list;
  reserved : (Workload.Job.t * float) list;
}

(* Top level, so a decision allocates no closure for them. *)
let duration r_star j = Policy.planned_duration (r_star j)

let reservation profile (j : Workload.Job.t) duration =
  (j, Cluster.Profile.place_earliest profile ~nodes:j.nodes ~duration)

(* The floor of the pass's profile, which begins at [now]
   ({!Cluster.Profile.floor}): [steps] steps, [times.(k)] and
   [free.(k)], free counts strictly decreasing. *)
type floor = {
  mutable times : float array;
  mutable free : int array;
  mutable steps : int;
}

(* One floor per domain, reused by every pass, so a decision allocates
   none.  A pass does not re-enter itself: [r_star] and [reserve] are
   an estimator and a reservation rule. *)
let floors =
  Domain.DLS.new_key (fun () -> { times = [||]; free = [||]; steps = 0 })

let build_floor fl profile =
  let segments = Cluster.Profile.segment_count profile in
  if Array.length fl.free < segments then begin
    let room = max 16 (2 * segments) in
    fl.times <- Array.make room 0.0;
    fl.free <- Array.make room 0
  end;
  fl.steps <- Cluster.Profile.floor profile fl.times fl.free

let rec first_below fl nodes k =
  if k < fl.steps && fl.free.(k) >= nodes then first_below fl nodes (k + 1)
  else k

(* The start test: [nodes] nodes free during [now, now + duration). *)
let fits fl ~nodes ~now ~duration =
  let k = first_below fl nodes 0 in
  k = fl.steps || (k > 0 && fl.times.(k) >= now +. duration)

(* A start of [nodes] over [now, now + duration) lowers the steps that
   begin before its end; a later step no lower than the last lowered
   one is then no longer a step. *)
let lower fl ~nodes ~now ~duration =
  let until = now +. duration in
  fl.free.(0) <- fl.free.(0) - nodes;
  let lowered = ref 1 in
  while !lowered < fl.steps && fl.times.(!lowered) < until do
    fl.free.(!lowered) <- fl.free.(!lowered) - nodes;
    incr lowered
  done;
  let last = fl.free.(!lowered - 1) in
  let kept = ref !lowered in
  while !kept < fl.steps && fl.free.(!kept) >= last do
    incr kept
  done;
  let dropped = !kept - !lowered in
  if dropped > 0 then begin
    for k = !kept to fl.steps - 1 do
      fl.times.(k - dropped) <- fl.times.(k);
      fl.free.(k - dropped) <- fl.free.(k)
    done;
    fl.steps <- fl.steps - dropped
  end

(* [free] is the nodes free at [now], lowered by each start; [fresh]
   says the floor is that of the profile as it stands.  The .mli says
   why both are exact. *)
let pass profile ~now ~r_star ~reserve jobs =
  let fl = Domain.DLS.get floors in
  let rec go free fresh start_now reserved = function
    | [] -> { start_now = List.rev start_now; reserved = List.rev reserved }
    | (j : Workload.Job.t) :: rest ->
        if j.nodes > free then
          if reserve j then
            let held = reservation profile j (duration r_star j) in
            go free false start_now (held :: reserved) rest
          else go free fresh start_now reserved rest
        else begin
          if not fresh then build_floor fl profile;
          let duration = duration r_star j in
          if fits fl ~nodes:j.nodes ~now ~duration then begin
            Cluster.Profile.reserve profile ~at:now ~nodes:j.nodes ~duration;
            lower fl ~nodes:j.nodes ~now ~duration;
            go (free - j.nodes) true (j :: start_now) reserved rest
          end
          else if reserve j then
            let held = reservation profile j duration in
            go free false start_now (held :: reserved) rest
          else go free true start_now reserved rest
        end
  in
  go (Cluster.Profile.free_now profile ~now) false [] [] jobs

let plan ~reservations ~priority (ctx : Policy.context) =
  let ordered =
    Priority.order priority ~now:ctx.now ~r_star:ctx.r_star ctx.waiting
  in
  let remaining = ref reservations in
  let first_k _ =
    let grant = !remaining > 0 in
    if grant then decr remaining;
    grant
  in
  pass (Policy.profile_of ctx) ~now:ctx.now ~r_star:ctx.r_star
    ~reserve:first_k ordered

let policy ?(reservations = 1) priority =
  let name =
    if reservations = 1 then
      Printf.sprintf "%s-backfill" (String.uppercase_ascii priority.Priority.name)
    else
      Printf.sprintf "%s-backfill/res=%d"
        (String.uppercase_ascii priority.Priority.name)
        reservations
  in
  Policy.make ~name ~decide:(fun ctx ->
      (plan ~reservations ~priority ctx).start_now)

let fcfs = policy Priority.fcfs
let lxf = policy Priority.lxf
let sjf = policy Priority.sjf

let run_now =
  Policy.make ~name:"run-now" ~decide:(fun ctx ->
      (pass (Policy.profile_of ctx) ~now:ctx.now ~r_star:ctx.r_star
         ~reserve:(fun _ -> false) ctx.waiting)
        .start_now)
