open Simcore

(* The overestimation mixture: accurate with probability [p_exact], a
   mild overestimate with probability [p_small]. *)
let p_exact = 0.2
let p_small = 0.25

(* Round request values, ascending.  A list, not a float array, so that
   [round_up] returns an element without boxing it. *)
let base =
  let open Units in
  [ minutes 5.0; minutes 10.0; minutes 15.0; minutes 30.0;
    hour; hours 2.0; hours 3.0; hours 4.0; hours 6.0; hours 8.0;
    hours 10.0; hours 12.0; hours 16.0; hours 20.0; hours 24.0;
    hours 36.0; hours 48.0 ]

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

(* Each compare is [Float.min]/[Float.max]'s first test, and picks the
   same operand: the operands are positive and finite, so the result has
   the same bits, without the out-of-line [caml_signbit] call behind the
   -0.0 test.  Not inlined: a call returns one of its boxed operands, so
   a job's [requested] shares the box of a round value, where inlined
   into the generator's loop the result would be boxed afresh, 2 words
   per job. *)
let[@inline never] draw rng ~limit ~runtime =
  let u = Rng.unit_float rng in
  let factor =
    if u < p_exact then 1.0
    else if u < p_exact +. p_small then small_factor rng
    else large_factor rng
  in
  let raw = runtime *. factor in
  let rounded = round_up ~limit (if limit < raw then limit else raw) in
  (* Keep the invariant R >= T even when T itself exceeds the last grid
     point below the limit. *)
  let capped = if limit < runtime then limit else runtime in
  let r = if capped > rounded then capped else rounded in
  if runtime > r then runtime else r
