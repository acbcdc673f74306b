open Simcore

type params = {
  capacity : int;
  serial_fraction : float;
  power2_fraction : float;
  max_log2_nodes : int;
  short_fraction : float;
  short_mu : float;
  short_sigma : float;
  long_mu : float;
  long_sigma : float;
  runtime_limit : float;
  jobs_per_day : float;
  estimate : Estimate.params;
}

let default =
  {
    capacity = Month_profile.capacity;
    serial_fraction = 0.25;
    power2_fraction = 0.75;
    max_log2_nodes = 7;
    short_fraction = 0.65;
    short_mu = log (Units.minutes 15.0);
    short_sigma = 1.4;
    long_mu = log (Units.hours 4.0);
    long_sigma = 0.9;
    runtime_limit = Units.hours 12.0;
    jobs_per_day = 115.0;
    estimate = Estimate.default;
  }

let draw_nodes params rng =
  if Dist.bernoulli rng ~p:params.serial_fraction then 1
  else begin
    let k = 1 + Rng.int rng params.max_log2_nodes in
    let exact = 1 lsl k in
    let nodes =
      if Dist.bernoulli rng ~p:params.power2_fraction then exact
      else (1 lsl (k - 1)) + 1 + Rng.int rng (exact - (1 lsl (k - 1)))
    in
    min nodes params.capacity
  end

let draw_runtime params rng =
  let mu, sigma =
    if Dist.bernoulli rng ~p:params.short_fraction then
      (params.short_mu, params.short_sigma)
    else (params.long_mu, params.long_sigma)
  in
  let t = Dist.lognormal rng ~mu ~sigma in
  Float.max 10.0 (Float.min params.runtime_limit t)

let generate ?(params = default) ~seed ~days () =
  if days <= 0.0 then invalid_arg "Model.generate: days <= 0";
  let rng = Rng.create ~seed in
  let arrivals_rng = Rng.split rng in
  let shape_rng = Rng.split rng in
  let estimate_rng = Rng.split rng in
  let span = Units.days days in
  let warm = Units.day in
  let whole = warm +. span +. warm in
  let count =
    max 1 (int_of_float (Float.round (params.jobs_per_day *. whole /. Units.day)))
  in
  (* reuse the calibrated generator's diurnal arrival machinery *)
  let submits =
    Generator.arrival_times arrivals_rng ~origin:0.0 ~span:whole ~count
  in
  let jobs =
    Array.mapi
      (fun id submit ->
        let nodes = draw_nodes params shape_rng in
        let runtime = draw_runtime params shape_rng in
        let requested =
          Estimate.draw ~params:params.estimate estimate_rng
            ~limit:params.runtime_limit ~runtime
        in
        Job.make ~id ~submit ~nodes ~runtime ~requested
          ~user:(1 + (id mod 23)))
      submits
  in
  Trace.of_array jobs ~measure_start:warm ~measure_end:(warm +. span)
