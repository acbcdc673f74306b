(* Checked in the positive form: every comparison with NaN is false. *)
let log_uniform ~lo ~hi =
  if not (lo > 0.0 && lo <= hi && Float.is_finite hi) then
    invalid_arg "Dist.log_uniform: need finite 0 < lo <= hi";
  let log_lo = log lo in
  let log_width = log hi -. log_lo in
  fun rng -> exp (log_lo +. Rng.float rng log_width)

let normal rng ~mean ~stddev =
  let u1 = 1.0 -. Rng.unit_float rng in
  let u2 = Rng.unit_float rng in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mean +. (stddev *. z)

let lognormal rng ~mu ~sigma = exp (normal rng ~mean:mu ~stddev:sigma)

(* Summed left to right, so the table holds the very running totals a
   per-draw sum would build, and a draw picks the same index. *)
let categorical ~weights =
  let n = Array.length weights in
  let cumulative = Array.make n 0.0 in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    let w = weights.(i) in
    if w < 0.0 then invalid_arg "Dist.categorical: negative weight";
    total := !total +. w;
    (* false for a NaN or infinite [w], or an overflowing sum *)
    if not (Float.is_finite !total) then
      invalid_arg "Dist.categorical: non-finite weight";
    cumulative.(i) <- !total
  done;
  if !total <= 0.0 then invalid_arg "Dist.categorical: all weights zero";
  let total = !total in
  fun rng ->
    let target = Rng.float rng total in
    let i = ref 0 in
    while !i < n - 1 && not (target < cumulative.(!i)) do incr i done;
    !i

let bernoulli rng ~p =
  let p = Float.max 0.0 (Float.min 1.0 p) in
  Rng.unit_float rng < p
