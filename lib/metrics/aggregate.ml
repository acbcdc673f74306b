type t = {
  n_jobs : int;
  avg_wait : float;
  max_wait : float;
  p98_wait : float;
  avg_bounded_slowdown : float;
  avg_queue_length : float;
}

let compute ?(avg_queue_length = 0.0) outcomes =
  let n = List.length outcomes in
  if n = 0 then
    {
      n_jobs = 0;
      avg_wait = 0.0;
      max_wait = 0.0;
      p98_wait = 0.0;
      avg_bounded_slowdown = 0.0;
      avg_queue_length;
    }
  else begin
    let waits = Array.of_list (List.map Outcome.wait outcomes) in
    let slowdowns = Array.of_list (List.map Outcome.bounded_slowdown outcomes) in
    {
      n_jobs = n;
      avg_wait = Simcore.Stats.mean waits;
      max_wait = Simcore.Stats.max waits;
      p98_wait = Simcore.Stats.percentile waits 98.0;
      avg_bounded_slowdown = Simcore.Stats.mean slowdowns;
      avg_queue_length;
    }
  end

let avg_wait_hours t = Simcore.Units.to_hours t.avg_wait
let max_wait_hours t = Simcore.Units.to_hours t.max_wait
let p98_wait_hours t = Simcore.Units.to_hours t.p98_wait

let pp fmt t =
  Format.fprintf fmt
    "n=%d avg_wait=%.2fh max_wait=%.2fh p98_wait=%.2fh avg_bsld=%.1f qlen=%.1f"
    t.n_jobs (avg_wait_hours t) (max_wait_hours t) (p98_wait_hours t)
    t.avg_bounded_slowdown t.avg_queue_length
