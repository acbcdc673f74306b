type plan = {
  start_now : Workload.Job.t list;
  reserved : (Workload.Job.t * float) list;
}

(* Top level, so a decision allocates no closure for them. *)
let duration r_star j = Float.max (r_star j) 1.0

let reservation profile (j : Workload.Job.t) duration =
  (j, Cluster.Profile.place_earliest profile ~nodes:j.nodes ~duration)

(* [free] is the nodes free at [now], lowered by each start; the .mli
   says why it is exact. *)
let pass profile ~now ~r_star ~reserve jobs =
  let rec go free start_now reserved = function
    | [] -> { start_now = List.rev start_now; reserved = List.rev reserved }
    | (j : Workload.Job.t) :: rest ->
        if j.nodes > free then
          if reserve j then
            let held = reservation profile j (duration r_star j) in
            go free start_now (held :: reserved) rest
          else go free start_now reserved rest
        else
          let duration = duration r_star j in
          if Cluster.Profile.fits_at profile ~at:now ~nodes:j.nodes ~duration
          then begin
            Cluster.Profile.reserve profile ~at:now ~nodes:j.nodes ~duration;
            go (free - j.nodes) (j :: start_now) reserved rest
          end
          else if reserve j then
            go free start_now (reservation profile j duration :: reserved) rest
          else go free start_now reserved rest
  in
  go (Cluster.Profile.free_at profile now) [] [] jobs

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
