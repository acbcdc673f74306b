type 'a band = { v : 'a; lo : 'a; hi : 'a }

type sample = {
  t : float;
  span : int;
  busy : int band;
  queue : int band;
  demand : int band;
  running : int band;
  max_wait : float band;
  excess : float;
}

(* Exact whole-run accumulators: one Timeline per signal, created at
   the first observation (the series does not know the trace start at
   [create] time). *)
type timelines = {
  tl_busy : Simcore.Stats.Timeline.t;
  tl_queue : Simcore.Stats.Timeline.t;
  tl_demand : Simcore.Stats.Timeline.t;
  tl_running : Simcore.Stats.Timeline.t;
  tl_max_wait : Simcore.Stats.Timeline.t;
  tl_excess : Simcore.Stats.Timeline.t;
}

type t = {
  policy : string;
  threshold : float;
  points : sample array;  (* slots [0, n) committed *)
  mutable n : int;
  mutable stride : int;  (* raw observations per sample *)
  mutable observed : int;
  mutable excess : float;  (* cumulative excessive wait, seconds *)
  mutable pending : sample option;  (* accumulating toward next commit *)
  mutable last : sample option;  (* newest raw observation *)
  mutable last_now : float;
  mutable tls : timelines option;
}

let point x = { v = x; lo = x; hi = x }

let dummy =
  {
    t = 0.0;
    span = 0;
    busy = point 0;
    queue = point 0;
    demand = point 0;
    running = point 0;
    max_wait = point 0.0;
    excess = 0.0;
  }

let create ?(threshold = 0.0) ~policy () =
  {
    policy;
    threshold;
    points = Array.make 4096 dummy;
    n = 0;
    stride = 1;
    observed = 0;
    excess = 0.0;
    pending = None;
    last = None;
    last_now = neg_infinity;
    tls = None;
  }

let capacity t = Array.length t.points
let observed t = t.observed
let stride t = t.stride
let length t = t.n
let samples t = Array.to_list (Array.sub t.points 0 t.n)
let cumulative_excess t = t.excess

(* [b] is the later band: its value wins, the envelope covers both. *)
let merge_band lo hi a b = { v = b.v; lo = lo a.lo b.lo; hi = hi a.hi b.hi }

let merge a b =
  {
    t = b.t;
    span = a.span + b.span;
    busy = merge_band Int.min Int.max a.busy b.busy;
    queue = merge_band Int.min Int.max a.queue b.queue;
    demand = merge_band Int.min Int.max a.demand b.demand;
    running = merge_band Int.min Int.max a.running b.running;
    max_wait = merge_band Float.min Float.max a.max_wait b.max_wait;
    excess = b.excess;
  }

(* Pairwise in-place halving: sample i absorbs samples 2i and 2i+1.
   [n] is even here because commits only happen at full strides and
   the capacity is even. *)
let halve t =
  let half = t.n / 2 in
  for i = 0 to half - 1 do
    t.points.(i) <- merge t.points.(2 * i) t.points.((2 * i) + 1)
  done;
  t.n <- half;
  t.stride <- t.stride * 2

let observe t (d : Engine.decision) =
  let now = d.now in
  if now < t.last_now then
    invalid_arg "Series.observe: time went backwards";
  List.iter
    (fun (j : Workload.Job.t) ->
      t.excess <- t.excess +. Float.max 0.0 (now -. j.submit -. t.threshold))
    d.started;
  let tls =
    match t.tls with
    | Some tls -> tls
    | None ->
        let tls =
          {
            tl_busy = Simcore.Stats.Timeline.create ~start:now;
            tl_queue = Simcore.Stats.Timeline.create ~start:now;
            tl_demand = Simcore.Stats.Timeline.create ~start:now;
            tl_running = Simcore.Stats.Timeline.create ~start:now;
            tl_max_wait = Simcore.Stats.Timeline.create ~start:now;
            tl_excess = Simcore.Stats.Timeline.create ~start:now;
          }
        in
        t.tls <- Some tls;
        tls
  in
  Simcore.Stats.Timeline.record tls.tl_busy ~now ~value:(float_of_int d.busy);
  Simcore.Stats.Timeline.record tls.tl_queue ~now
    ~value:(float_of_int d.queue);
  Simcore.Stats.Timeline.record tls.tl_demand ~now
    ~value:(float_of_int d.demand);
  Simcore.Stats.Timeline.record tls.tl_running ~now
    ~value:(float_of_int d.running);
  Simcore.Stats.Timeline.record tls.tl_max_wait ~now ~value:d.max_wait;
  Simcore.Stats.Timeline.record tls.tl_excess ~now ~value:t.excess;
  t.last_now <- now;
  t.observed <- t.observed + 1;
  let s =
    {
      t = now;
      span = 1;
      busy = point d.busy;
      queue = point d.queue;
      demand = point d.demand;
      running = point d.running;
      max_wait = point d.max_wait;
      excess = t.excess;
    }
  in
  t.last <- Some s;
  let p = match t.pending with None -> s | Some p -> merge p s in
  if p.span >= t.stride then begin
    t.pending <- None;
    t.points.(t.n) <- p;
    t.n <- t.n + 1;
    if t.n = Array.length t.points then halve t
  end
  else t.pending <- Some p

(* --- summaries --- *)

type summary = {
  label : string;
  last : float;
  avg : float;
  lo : float;
  hi : float;
}

let summary t =
  match (t.tls, t.last) with
  | None, _ | _, None -> []
  | Some tls, Some last ->
      let upto = t.last_now in
      let row label tl last =
        {
          label;
          last;
          avg = Simcore.Stats.Timeline.average tl ~upto;
          lo = Simcore.Stats.Timeline.min_value tl ~upto;
          hi = Simcore.Stats.Timeline.max_value tl ~upto;
        }
      in
      [
        row "busy_nodes" tls.tl_busy (float_of_int last.busy.v);
        row "queue_jobs" tls.tl_queue (float_of_int last.queue.v);
        row "backlog_nodes" tls.tl_demand (float_of_int last.demand.v);
        row "running_jobs" tls.tl_running (float_of_int last.running.v);
        row "max_wait_s" tls.tl_max_wait last.max_wait.v;
        row "excess_s" tls.tl_excess last.excess;
      ]

(* --- JSONL export --- *)

let schema = "run_series/1"

let escape = Decision_log.escape

let pp_jsonl ?(run = "") fmt t =
  Format.fprintf fmt
    "{\"type\":\"run\",\"schema\":\"%s\",\"run\":\"%s\",\"policy\":\"%s\",\"observed\":%d,\"samples\":%d,\"stride\":%d,\"capacity\":%d,\"threshold\":%.3f,\"excess_total\":%.3f}@."
    schema (escape run) (escape t.policy) t.observed t.n t.stride
    (capacity t) t.threshold t.excess;
  Array.iteri
    (fun i s ->
      if i < t.n then
        Format.fprintf fmt
          "{\"type\":\"sample\",\"run\":\"%s\",\"i\":%d,\"t\":%.3f,\"span\":%d,\"busy\":%d,\"busy_min\":%d,\"busy_max\":%d,\"queue\":%d,\"queue_min\":%d,\"queue_max\":%d,\"demand\":%d,\"demand_min\":%d,\"demand_max\":%d,\"running\":%d,\"running_min\":%d,\"running_max\":%d,\"max_wait\":%.3f,\"max_wait_min\":%.3f,\"max_wait_max\":%.3f,\"excess\":%.3f}@."
          (escape run) i s.t s.span s.busy.v s.busy.lo s.busy.hi s.queue.v
          s.queue.lo s.queue.hi s.demand.v s.demand.lo s.demand.hi
          s.running.v s.running.lo s.running.hi s.max_wait.v s.max_wait.lo
          s.max_wait.hi s.excess)
    t.points
