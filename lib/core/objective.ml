type secondary = Bounded_slowdown | Avg_wait

let secondary_name = function
  | Bounded_slowdown -> "bsld"
  | Avg_wait -> "avgW"

let min_contribution = function Bounded_slowdown -> 1.0 | Avg_wait -> 0.0

type t = { excess : float; secondary_sum : float; jobs : int }

let zero = { excess = 0.0; secondary_sum = 0.0; jobs = 0 }

let add ?(secondary = Bounded_slowdown) t ~wait ~threshold ~est_runtime =
  let excess = Float.max 0.0 (wait -. threshold) in
  let contribution =
    match secondary with
    | Bounded_slowdown ->
        1.0 +. (wait /. Float.max est_runtime Simcore.Units.minute)
    | Avg_wait -> wait
  in
  {
    excess = t.excess +. excess;
    secondary_sum = t.secondary_sum +. contribution;
    jobs = t.jobs + 1;
  }

let avg_secondary t =
  if t.jobs = 0 then 0.0 else t.secondary_sum /. float_of_int t.jobs

(* One float second of excess on totals of hours is noise; compare with
   a relative-plus-absolute tolerance so the second level can break
   effective ties. *)
let close a b =
  let scale = Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= 1e-9 *. scale

let compare a b =
  if close a.excess b.excess then
    if close a.secondary_sum b.secondary_sum then 0
    else Float.compare (avg_secondary a) (avg_secondary b)
  else Float.compare a.excess b.excess

let is_better ~candidate ~incumbent = compare candidate incumbent < 0

let pp fmt t =
  Format.fprintf fmt "excess=%.2fh avg_secondary=%.2f (%d jobs)"
    (Simcore.Units.to_hours t.excess)
    (avg_secondary t) t.jobs
