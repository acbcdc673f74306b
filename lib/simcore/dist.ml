let exponential rng ~mean =
  if mean <= 0.0 then invalid_arg "Dist.exponential: mean must be positive";
  let u = 1.0 -. Rng.unit_float rng in
  -.mean *. log u

let uniform rng ~lo ~hi =
  if hi < lo then invalid_arg "Dist.uniform: hi < lo";
  lo +. Rng.float rng (hi -. lo)

let log_uniform rng ~lo ~hi =
  if lo <= 0.0 || hi < lo then invalid_arg "Dist.log_uniform: need 0 < lo <= hi";
  exp (uniform rng ~lo:(log lo) ~hi:(log hi))

let normal rng ~mean ~stddev =
  let u1 = 1.0 -. Rng.unit_float rng in
  let u2 = Rng.unit_float rng in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mean +. (stddev *. z)

let lognormal rng ~mu ~sigma = exp (normal rng ~mean:mu ~stddev:sigma)

(* Loops over local float refs rather than a fold and a recursive scan,
   so that neither the sum nor the running total is boxed per weight. *)
let categorical rng ~weights =
  let n = Array.length weights in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    let w = weights.(i) in
    if w < 0.0 then invalid_arg "Dist.categorical: negative weight";
    total := !total +. w
  done;
  if !total <= 0.0 then invalid_arg "Dist.categorical: all weights zero";
  let target = Rng.float rng !total in
  let chosen = ref (n - 1) and acc = ref 0.0 and i = ref 0 in
  while !i < n - 1 do
    acc := !acc +. weights.(!i);
    if target < !acc then begin
      chosen := !i;
      i := n
    end
    else incr i
  done;
  !chosen

let bernoulli rng ~p =
  let p = Float.max 0.0 (Float.min 1.0 p) in
  Rng.unit_float rng < p
