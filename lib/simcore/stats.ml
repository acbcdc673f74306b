let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty array";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then sorted.(lo)
  else
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)

let max xs =
  if Array.length xs = 0 then invalid_arg "Stats.max: empty array";
  Array.fold_left Float.max Float.neg_infinity xs

module Timeline = struct
  (* All-float record: every mutable store below is an unboxed float
     write, so recording never allocates.  The min/max accumulators use
     infinities as "no positive-span value yet" sentinels instead of a
     bool flag (a non-float field would box the whole record). *)
  type t = {
    mutable last_time : float;
    mutable last_value : float;
    mutable integral : float;
    mutable vmin : float;  (* min over values held for positive time *)
    mutable vmax : float;
    start : float;
  }

  let create ~start =
    {
      last_time = start;
      last_value = 0.0;
      integral = 0.0;
      vmin = Float.infinity;
      vmax = Float.neg_infinity;
      start;
    }

  let record t ~now ~value =
    if now < t.last_time then
      invalid_arg "Stats.Timeline.record: time went backwards";
    if now > t.last_time then begin
      (* the previous value was held for a positive span *)
      if t.last_value < t.vmin then t.vmin <- t.last_value;
      if t.last_value > t.vmax then t.vmax <- t.last_value
    end;
    t.integral <- t.integral +. (t.last_value *. (now -. t.last_time));
    t.last_time <- now;
    t.last_value <- value

  let average t ~upto =
    let span = upto -. t.start in
    if span <= 0.0 then 0.0
    else
      let tail =
        if upto > t.last_time then t.last_value *. (upto -. t.last_time)
        else 0.0
      in
      (t.integral +. tail) /. span

  (* The current value joins the extremes only if it survives past
     [last_time]; the accumulated vmin/vmax already cover everything
     before. *)
  let min_value t ~upto =
    let m = if upto > t.last_time then Float.min t.vmin t.last_value
            else t.vmin
    in
    if m = Float.infinity then 0.0 else m

  let max_value t ~upto =
    let m = if upto > t.last_time then Float.max t.vmax t.last_value
            else t.vmax
    in
    if m = Float.neg_infinity then 0.0 else m
end
