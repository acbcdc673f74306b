open Simcore

type config = { seed : int; scale : float; users : int }

let default_config = { seed = 42; scale = 1.0; users = 40 }

(* ------------------------------------------------------------------ *)
(* Arrivals                                                            *)

(* Relative arrival rate at absolute time [t]; t = 0 is Monday 00:00.
   Weekends run at just over half rate; submissions peak mid-afternoon. *)
let rate t =
  let day_of_week = int_of_float (Float.rem (t /. Units.day) 7.0) in
  let weekly = if day_of_week >= 5 then 0.55 else 1.0 in
  let hour_of_day = Float.rem (t /. Units.hour) 24.0 in
  let diurnal =
    1.0 +. (0.45 *. cos (2.0 *. Float.pi *. (hour_of_day -. 14.0) /. 24.0))
  in
  weekly *. diurnal

(* Stable sort of a NaN-free float array, equal to [Array.stable_sort
   Float.compare].  The arrival targets are uniform, so one stable
   counting pass into [n] equal-width buckets over [\[lo, hi\]] leaves
   a few elements per bucket, and an insertion sort over the whole
   array then moves elements only within their bucket: the bucket index
   is monotone in the value, so an element of a lower bucket is
   strictly smaller than any of a higher one.  Equal values ([-0.] and
   [0.] too) share a bucket and never pass each other.  Returns [false],
   with [a] untouched, when a bucket holds more than [crowded]
   elements: the insertion sort would be quadratic. *)
let bucket_sort (a : float array) ~lo ~scale =
  let n = Array.length a in
  let crowded = 64 in
  let bucket x = Int.min (n - 1) (int_of_float ((x -. lo) *. scale)) in
  (* [next.(b + 1)] counts bucket [b]; after the prefix sums [next.(b)]
     is the next free slot of bucket [b]. *)
  let next = Array.make (n + 1) 0 in
  let even = ref true in
  for i = 0 to n - 1 do
    let b = bucket a.(i) + 1 in
    next.(b) <- next.(b) + 1;
    if next.(b) > crowded then even := false
  done;
  if !even then begin
    for b = 1 to n do
      next.(b) <- next.(b) + next.(b - 1)
    done;
    let src = Array.copy a in
    for i = 0 to n - 1 do
      let x = src.(i) in
      let b = bucket x in
      a.(next.(b)) <- x;
      next.(b) <- next.(b) + 1
    done;
    for i = 1 to n - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  end;
  !even

(* An array of equal values is already sorted.  A range too wide or
   too narrow for a finite, positive bucket scale, and a crowded
   bucket, take the library sort. *)
let sort_floats (a : float array) =
  let lo = ref infinity and hi = ref neg_infinity in
  for i = 0 to Array.length a - 1 do
    let x = a.(i) in
    if x < !lo then lo := x;
    if x > !hi then hi := x
  done;
  if !hi > !lo then begin
    let scale = float_of_int (Array.length a) /. (!hi -. !lo) in
    if not (scale > 0.0 && scale < infinity && bucket_sort a ~lo:!lo ~scale)
    then Array.stable_sort Float.compare a
  end

let arrival_times rng ~origin ~span ~count =
  (* Hourly piecewise-constant rate; inverse-CDF sampling gives exactly
     [count] arrivals with the right temporal profile. *)
  let bin = Units.hour in
  let n_bins = max 1 (int_of_float (Float.ceil (span /. bin))) in
  let cumulative = Array.make (n_bins + 1) 0.0 in
  for i = 0 to n_bins - 1 do
    let t = origin +. ((float_of_int i +. 0.5) *. bin) in
    cumulative.(i + 1) <- cumulative.(i) +. rate t
  done;
  let total = cumulative.(n_bins) in
  let times = Array.init count (fun _ -> Rng.float rng total) in
  (* The inverse CDF is monotone, so sorted targets map to sorted times
     in one forward sweep to the last bin with [cumulative.(i) <= target]. *)
  sort_floats times;
  let i = ref 0 in
  for k = 0 to count - 1 do
    let target = times.(k) in
    while !i < n_bins - 1 && cumulative.(!i + 1) <= target do incr i done;
    let lo = cumulative.(!i) in
    let slack = cumulative.(!i + 1) -. lo in
    let frac = if slack <= 0.0 then 0.0 else (target -. lo) /. slack in
    times.(k) <-
      origin +. Float.min (span -. 1.0) ((float_of_int !i +. frac) *. bin)
  done;
  times

(* ------------------------------------------------------------------ *)
(* Node counts                                                         *)

let range_bounds = function
  | 0 -> (1, 1)
  | 1 -> (2, 2)
  | 2 -> (3, 4)
  | 3 -> (5, 8)
  | 4 -> (9, 16)
  | 5 -> (17, 32)
  | 6 -> (33, 64)
  | 7 -> (65, Month_profile.capacity)
  | i -> invalid_arg (Printf.sprintf "Generator.range_bounds: %d" i)

let draw_nodes rng ~range =
  let lo, hi = range_bounds range in
  if lo = hi then lo
  else
    let u = Rng.unit_float rng in
    if u < 0.5 then hi (* users favour full powers of two: 4, 8, 16 ... *)
    else if u < 0.7 then lo
    else lo + Rng.int rng (hi - lo + 1)

(* ------------------------------------------------------------------ *)
(* Runtimes                                                            *)

let bucket_bounds ~limit = function
  | 0 -> (30.0, Units.hour)
  | 1 -> (Units.hour, Units.hours 5.0)
  | 2 -> (Units.hours 5.0, limit)
  | i -> invalid_arg (Printf.sprintf "Generator.bucket_bounds: %d" i)

(* [short] and [long] are the month's {!Month_profile.class_tables}. *)
let draw_bucket rng ~(short : float array) ~(long : float array) node_class =
  let p_short = short.(node_class) and p_long = long.(node_class) in
  let u = Rng.unit_float rng in
  if u < p_short then 0 else if u < p_short +. p_long then 2 else 1

(* ------------------------------------------------------------------ *)
(* Demand calibration                                                  *)

(* Every job's shape before calibration, one array per field, so that
   the calibration passes rewrite runtimes without boxing them. *)
type protos = {
  nodes : int array;
  range : int array;
  bucket : int array;
  runtime : float array;
}

let draw_protos rng profile ~limit count =
  let protos =
    { nodes = Array.make count 0; range = Array.make count 0;
      bucket = Array.make count 0; runtime = Array.make count 0.0 }
  in
  let draw_range = Dist.categorical ~weights:profile.Month_profile.jobs8 in
  let draw_runtime =
    Array.init 3 (fun b ->
        let lo, hi = bucket_bounds ~limit b in
        Dist.log_uniform ~lo ~hi)
  in
  let short, long = Month_profile.class_tables profile in
  for i = 0 to count - 1 do
    let range = draw_range rng in
    let nodes = draw_nodes rng ~range in
    let bucket = draw_bucket rng ~short ~long (Job.node_class5 nodes) in
    protos.range.(i) <- range;
    protos.nodes.(i) <- nodes;
    protos.bucket.(i) <- bucket;
    protos.runtime.(i) <- draw_runtime.(bucket) rng
  done;
  protos

let calibrate ~profile ~total_target p =
  let limit = profile.Month_profile.runtime_limit in
  let fractions =
    let sum = Array.fold_left ( +. ) 0.0 profile.Month_profile.demand8 in
    Array.map (fun d -> d /. sum) profile.Month_profile.demand8
  in
  (* Clamp inside the bucket so the Table 4 short/long shares survive
     calibration; use lo+epsilon because buckets are half-open on the
     left. *)
  let lows = Array.init 3 (fun b -> fst (bucket_bounds ~limit b) +. 1.0) in
  let highs = Array.init 3 (fun b -> snd (bucket_bounds ~limit b)) in
  let iterations = 5 in
  for _ = 1 to iterations do
    let achieved = Array.make 8 0.0 in
    for i = 0 to Array.length p.runtime - 1 do
      let r = p.range.(i) in
      achieved.(r) <-
        achieved.(r) +. (float_of_int p.nodes.(i) *. p.runtime.(i))
    done;
    let factors =
      Array.init 8 (fun r -> fractions.(r) *. total_target /. achieved.(r))
    in
    for i = 0 to Array.length p.runtime - 1 do
      let r = p.range.(i) in
      if achieved.(r) > 0.0 then begin
        let factor = factors.(r) in
        let b = p.bucket.(i) in
        p.runtime.(i) <-
          Float.max lows.(b) (Float.min highs.(b) (p.runtime.(i) *. factor))
      end
    done
  done

(* ------------------------------------------------------------------ *)
(* Month generation                                                    *)

let month ?(config = default_config) profile =
  if config.scale <= 0.0 then invalid_arg "Generator.month: scale <= 0";
  let limit = profile.Month_profile.runtime_limit in
  (* [scale] compresses the time axis together with the job count, so a
     scaled-down month keeps the offered load and queueing dynamics of
     the full month. *)
  let span = Month_profile.span *. config.scale in
  let warmup = Units.week *. config.scale in
  let cooldown = warmup in
  let rng = Rng.create ~seed:(config.seed + Hashtbl.hash profile.Month_profile.label) in
  let arrivals_rng = Rng.split rng in
  let shape_rng = Rng.split rng in
  let estimate_rng = Rng.split rng in
  let n_measured =
    max 1 (int_of_float (Float.round
                           (float_of_int profile.Month_profile.n_jobs *. config.scale)))
  in
  let count_for seconds =
    int_of_float (Float.round (float_of_int n_measured *. seconds /. span))
  in
  let segments =
    [ (0.0, warmup, count_for warmup);
      (warmup, span, n_measured);
      (warmup +. span, cooldown, count_for cooldown) ]
  in
  let submits =
    Array.concat
      (List.map
         (fun (origin, seg_span, count) ->
           if seg_span <= 0.0 || count = 0 then [||]
           else arrival_times arrivals_rng ~origin ~span:seg_span ~count)
         segments)
  in
  let protos = draw_protos shape_rng profile ~limit (Array.length submits) in
  let whole_span = warmup +. span +. cooldown in
  let total_target =
    profile.Month_profile.load
    *. float_of_int Month_profile.capacity
    *. whole_span
  in
  calibrate ~profile ~total_target protos;
  (* Bucket clamping in [calibrate] can leave the total load a few
     percent off the Table 3 target (e.g. months whose demand sits in
     long wide jobs near the bucket bounds).  A final compression of
     the time axis fixes the offered load exactly without touching the
     job mix or the runtime-class shares, so each job is built at its
     final submit. *)
  let squeeze =
    Trace.load_squeeze ~capacity:Month_profile.capacity
      ~target:profile.Month_profile.load ~measure_start:warmup
      ~measure_end:(warmup +. span) ~submit:submits ~nodes:protos.nodes
      ~runtime:protos.runtime
  in
  let user_rng = Rng.split rng in
  let user_weights =
    (* Zipf-like popularity: user k+1 has weight 1/(k+1) *)
    Array.init (max 1 config.users) (fun k -> 1.0 /. float_of_int (k + 1))
  in
  let draw_user = Dist.categorical ~weights:user_weights in
  let jobs =
    Array.mapi
      (fun id submit ->
        let runtime = protos.runtime.(id) in
        let requested = Estimate.draw estimate_rng ~limit ~runtime in
        Job.make ~id ~submit:(squeeze submit) ~nodes:protos.nodes.(id)
          ~runtime ~requested ~user:(1 + draw_user user_rng))
      submits
  in
  Trace.of_array jobs ~measure_start:(squeeze warmup)
    ~measure_end:(squeeze (warmup +. span))
