(* Wall-clock spans at the layer boundaries the benchmark calls
   through.  Spans are kept in memory and written out once, as Chrome
   trace_event JSON in the shape bench/main.exe --trace uses for its
   pool spans, when the run ends. *)

type span = {
  name : string;  (** layer.operation, e.g. "sched.decide" *)
  parent : string;  (** name of the enclosing span; "" for the root *)
  id : int;  (** decision index for per-decision spans, -1 otherwise *)
  start_s : float;
  stop_s : float;
}

type t = { mutable spans : span list }

let create () = { spans = [] }

let record ?(id = -1) t ~name ~parent ~start_s ~stop_s =
  t.spans <- { name; parent; id; start_s; stop_s } :: t.spans

let spans t = List.rev t.spans

let duration s = s.stop_s -. s.start_s

(* The layer is the span name up to its first '.'. *)
let category name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let write_chrome t ~path ~process =
  let spans = spans t in
  let t0 =
    List.fold_left (fun acc s -> Float.min acc s.start_s) infinity spans
  in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  Printf.fprintf oc
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
     \"args\":{\"name\":%S}}"
    process;
  List.iter
    (fun s ->
      Printf.fprintf oc
        ",\n\
         {\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"pid\":0,\"tid\":0,\
         \"ts\":%.3f,\"dur\":%.3f,\"args\":{\"parent\":%S%s}}"
        s.name (category s.name)
        ((s.start_s -. t0) *. 1e6)
        (duration s *. 1e6)
        s.parent
        (if s.id >= 0 then Printf.sprintf ",\"decision\":%d" s.id else ""))
    spans;
  output_string oc "\n]}\n";
  close_out oc
