type plan = {
  start_now : Workload.Job.t list;
  reserved : (Workload.Job.t * float) list;
}

let rec sorted cmp = function
  | a :: (b :: _ as rest) -> cmp a b <= 0 && sorted cmp rest
  | [] | [ _ ] -> true

let plan ~reservations ~priority (ctx : Policy.context) =
  let profile = Policy.profile_of ctx in
  (* The queue arrives in submit order, which is already FCFS order; a
     stable sort of a sorted list is the identity, so check first and
     sort only when some adjacent pair is out of order. *)
  let cmp = priority.Priority.compare ~now:ctx.now ~r_star:ctx.r_star in
  let ordered =
    if sorted cmp ctx.waiting then ctx.waiting
    else List.stable_sort cmp ctx.waiting
  in
  let remaining = ref reservations in
  let start_now = ref [] in
  let reserved = ref [] in
  List.iter
    (fun (j : Workload.Job.t) ->
      let duration = Float.max (ctx.r_star j) 1.0 in
      if Cluster.Profile.fits_at profile ~at:ctx.now ~nodes:j.nodes ~duration
      then begin
        Cluster.Profile.reserve profile ~at:ctx.now ~nodes:j.nodes ~duration;
        start_now := j :: !start_now
      end
      else if !remaining > 0 then begin
        let s =
          Cluster.Profile.earliest_start profile ~nodes:j.nodes ~duration
        in
        Cluster.Profile.reserve profile ~at:s ~nodes:j.nodes ~duration;
        reserved := (j, s) :: !reserved;
        decr remaining
      end)
    ordered;
  { start_now = List.rev !start_now; reserved = List.rev !reserved }

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
