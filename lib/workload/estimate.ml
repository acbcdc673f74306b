open Simcore

type params = { p_exact : float; p_small : float }

let default = { p_exact = 0.2; p_small = 0.25 }

(* Round request values, ascending.  A list, not a float array, so that
   [round_up] returns an element without boxing it. *)
let base =
  let open Units in
  [ minutes 5.0; minutes 10.0; minutes 15.0; minutes 30.0;
    hour; hours 2.0; hours 3.0; hours 4.0; hours 6.0; hours 8.0;
    hours 10.0; hours 12.0; hours 16.0; hours 20.0; hours 24.0;
    hours 36.0; hours 48.0 ]

let grid ~limit =
  Array.of_list (List.filter (fun v -> v < limit) base @ [ limit ])

(* [limit] and [r] are typed [float] so that each step compares floats
   inline; untyped, both compares are calls to the polymorphic
   [caml_lessthan] and [caml_greaterequal]. *)
let rec first_at_least ~(limit : float) (r : float) = function
  | b :: rest when b < limit ->
      if b >= r then b else first_at_least ~limit r rest
  | _ -> limit

let round_up ~limit r = first_at_least ~limit r base

let small_factor = Dist.log_uniform ~lo:1.0 ~hi:2.0
let large_factor = Dist.log_uniform ~lo:2.0 ~hi:20.0

let draw ?(params = default) rng ~limit ~runtime =
  let u = Rng.unit_float rng in
  let factor =
    if u < params.p_exact then 1.0
    else if u < params.p_exact +. params.p_small then small_factor rng
    else large_factor rng
  in
  let raw = runtime *. factor in
  let rounded = round_up ~limit (Float.min raw limit) in
  (* Keep the invariant R >= T even when T itself exceeds the last grid
     point below the limit. *)
  Float.max rounded (Float.min runtime limit) |> Float.max runtime
