type decision = {
  seq : int;
  time : float;
  queue : int;
  started : int;
  searched : bool;
  nodes : int;
  leaves : int;
  iterations : int;
  budget : int;
  exhausted : bool;
  improvements : int;
  winner_iteration : int;
  winner_depth : int;
}

let empty_decision =
  {
    seq = -1;
    time = 0.0;
    queue = 0;
    started = 0;
    searched = false;
    nodes = 0;
    leaves = 0;
    iterations = 0;
    budget = 0;
    exhausted = false;
    improvements = 0;
    winner_iteration = 0;
    winner_depth = -1;
  }

type t = {
  policy : string;
  ring : decision array;
  mutable recorded : int;
}

let create ~policy () =
  { policy; ring = Array.make (1 lsl 16) empty_decision; recorded = 0 }

let recorded t = t.recorded
let dropped t = max 0 (t.recorded - Array.length t.ring)

let observe t (d : Engine.decision) =
  let seq = t.recorded in
  let time = d.now and queue = d.seen and started = List.length d.started in
  let e =
    match d.probe with
    | None ->
        { empty_decision with seq; time; queue; started }
    | Some (p : Simcore.Telemetry.Probe.t) ->
        {
          seq;
          time;
          queue;
          started;
          searched = true;
          nodes = p.nodes;
          leaves = p.leaves;
          iterations = p.iterations;
          budget = p.budget;
          exhausted = p.exhausted;
          improvements = p.improvements;
          winner_iteration = p.winner_iteration;
          winner_depth = p.winner_depth;
        }
  in
  t.ring.(seq mod Array.length t.ring) <- e;
  t.recorded <- seq + 1

let decisions t =
  let cap = Array.length t.ring in
  let retained = min t.recorded cap in
  List.init retained (fun i ->
      t.ring.((t.recorded - retained + i) mod cap))

(* Minimal JSON string escaping: policy names and run labels are ASCII
   but quotes/backslashes must not break the line format.  Shared with
   Series' exporter. *)
let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let schema = "decision_trace/1"

let pp_jsonl ?(run = "") fmt t =
  let ds = decisions t in
  Format.fprintf fmt
    "{\"type\":\"run\",\"schema\":\"%s\",\"run\":\"%s\",\"policy\":\"%s\",\"decisions\":%d,\"retained\":%d,\"dropped\":%d}@."
    schema (escape run) (escape t.policy) t.recorded (List.length ds)
    (dropped t);
  List.iter
    (fun d ->
      Format.fprintf fmt
        "{\"type\":\"decision\",\"run\":\"%s\",\"seq\":%d,\"t\":%.3f,\"queue\":%d,\"started\":%d,\"searched\":%b,\"nodes\":%d,\"leaves\":%d,\"iters\":%d,\"budget\":%d,\"exhausted\":%b,\"improvements\":%d,\"winner_iter\":%d,\"winner_depth\":%d}@."
        (escape run) d.seq d.time d.queue d.started d.searched d.nodes
        d.leaves d.iterations d.budget d.exhausted d.improvements
        d.winner_iteration d.winner_depth)
    ds

let chrome_events ?(run = "") ?(pid = 1) t =
  let label = if run = "" then t.policy else run ^ " " ^ t.policy in
  let meta =
    Printf.sprintf
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"%s\"}}"
      pid (escape label)
  in
  let events =
    List.concat_map
      (fun d ->
        (* 1 trace us = 1 simulated us; span length = search effort in
           nodes so relative decision cost is visible at a glance. *)
        let ts = d.time *. 1e6 in
        let dur = float_of_int (max d.nodes 1) in
        [
          Printf.sprintf
            "{\"name\":\"decision\",\"cat\":\"sched\",\"ph\":\"X\",\"pid\":%d,\"tid\":1,\"ts\":%.0f,\"dur\":%.0f,\"args\":{\"seq\":%d,\"queue\":%d,\"started\":%d,\"nodes\":%d,\"leaves\":%d,\"iters\":%d,\"improvements\":%d,\"winner_iter\":%d,\"winner_depth\":%d,\"exhausted\":%b}}"
            pid ts dur d.seq d.queue d.started d.nodes d.leaves d.iterations
            d.improvements d.winner_iteration d.winner_depth d.exhausted;
          Printf.sprintf
            "{\"name\":\"queue\",\"ph\":\"C\",\"pid\":%d,\"tid\":1,\"ts\":%.0f,\"args\":{\"waiting\":%d}}"
            pid ts d.queue;
        ])
      (decisions t)
  in
  meta :: events

let chrome_document events =
  "{\"traceEvents\":[\n" ^ String.concat ",\n" events ^ "\n]}\n"
