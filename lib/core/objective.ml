type secondary = Bounded_slowdown | Avg_wait

let min_contribution = function Bounded_slowdown -> 1.0 | Avg_wait -> 0.0

type t = { excess : float; secondary_sum : float; jobs : int }

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
