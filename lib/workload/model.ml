open Simcore

(* Node counts: one node with probability [serial_fraction]; else an
   exact power of two 2^k (1 <= k <= [max_log2_nodes]) with probability
   [power2_fraction], or a size in (2^(k-1), 2^k]. *)
let serial_fraction = 0.25
let power2_fraction = 0.75
let max_log2_nodes = 7

(* Runtimes: a lognormal mixture, short with probability
   [short_fraction], clamped to [\[10 s, runtime_limit\]]. *)
let short_fraction = 0.65
let short_mu = log (Units.minutes 15.0)
let short_sigma = 1.4
let long_mu = log (Units.hours 4.0)
let long_sigma = 0.9
let runtime_limit = Units.hours 12.0
let jobs_per_day = 115.0

let draw_nodes rng =
  if Dist.bernoulli rng ~p:serial_fraction then 1
  else begin
    let k = 1 + Rng.int rng max_log2_nodes in
    let exact = 1 lsl k in
    let nodes =
      if Dist.bernoulli rng ~p:power2_fraction then exact
      else (1 lsl (k - 1)) + 1 + Rng.int rng (exact - (1 lsl (k - 1)))
    in
    min nodes Month_profile.capacity
  end

let draw_runtime rng =
  let mu, sigma =
    if Dist.bernoulli rng ~p:short_fraction then (short_mu, short_sigma)
    else (long_mu, long_sigma)
  in
  let t = Dist.lognormal rng ~mu ~sigma in
  Float.max 10.0 (Float.min runtime_limit t)

let generate ~seed ~days =
  if days <= 0.0 then invalid_arg "Model.generate: days <= 0";
  let rng = Rng.create ~seed in
  let arrivals_rng = Rng.split rng in
  let shape_rng = Rng.split rng in
  let estimate_rng = Rng.split rng in
  let span = Units.days days in
  let warm = Units.day in
  let whole = warm +. span +. warm in
  let count =
    max 1 (int_of_float (Float.round (jobs_per_day *. whole /. Units.day)))
  in
  (* reuse the calibrated generator's diurnal arrival machinery *)
  let submits =
    Generator.arrival_times arrivals_rng ~origin:0.0 ~span:whole ~count
  in
  let jobs =
    Array.mapi
      (fun id submit ->
        let nodes = draw_nodes shape_rng in
        let runtime = draw_runtime shape_rng in
        let requested =
          Estimate.draw estimate_rng ~limit:runtime_limit ~runtime
        in
        Job.make ~id ~submit ~nodes ~runtime ~requested
          ~user:(1 + (id mod 23)))
      submits
  in
  Trace.of_array jobs ~measure_start:warm ~measure_end:(warm +. span)
