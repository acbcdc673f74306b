(* Standalone validator for observability artifacts (@trace-smoke and
   @report-smoke).

   No JSON library in the test stack, so this checks the formats the
   exporters actually emit.  Dispatch is on content: a decision-trace
   JSONL (Sim.Decision_log) is run headers each followed by decision
   lines; a run-series JSONL (Sim.Series) is run headers each followed
   by downsampled sample lines; a Chrome file is one
   {"traceEvents":[...]} document; an HTML report (Sim.Report) must be
   a self-contained zero-JS page; an OpenMetrics file
   (Simcore.Metrics) must expose well-formed families ending in
   "# EOF" and, after [--search], exactly the families a search
   policy's run registers, in their pinned order.  Exit 0 on success, 1
   with a message on the first violation. *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

(* First occurrence of ["key":] in [line], position just past it. *)
let find_field line key =
  let pat = Printf.sprintf "\"%s\":" key in
  let n = String.length line and m = String.length pat in
  let rec go i =
    if i + m > n then None
    else if String.sub line i m = pat then Some (i + m)
    else go (i + 1)
  in
  go 0

let field_raw ~file ~lineno line key =
  match find_field line key with
  | None -> fail "%s:%d: missing field %S" file lineno key
  | Some i ->
      let n = String.length line in
      let stop = ref i in
      while
        !stop < n && (match line.[!stop] with ',' | '}' -> false | _ -> true)
      do
        incr stop
      done;
      String.sub line i (!stop - i)

let field_int ~file ~lineno line key =
  let raw = field_raw ~file ~lineno line key in
  match int_of_string_opt raw with
  | Some v -> v
  | None -> fail "%s:%d: field %S is not an int: %s" file lineno key raw

let field_float ~file ~lineno line key =
  let raw = field_raw ~file ~lineno line key in
  match float_of_string_opt raw with
  | Some v -> v
  | None -> fail "%s:%d: field %S is not a number: %s" file lineno key raw

let field_bool ~file ~lineno line key =
  match field_raw ~file ~lineno line key with
  | "true" -> true
  | "false" -> false
  | raw -> fail "%s:%d: field %S is not a bool: %s" file lineno key raw

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let read_lines file =
  let ic = try open_in file with Sys_error m -> fail "%s" m in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

(* --- JSONL (decision_trace/1) --- *)

let validate_jsonl file =
  let lines = read_lines file in
  if lines = [] then fail "%s: empty trace" file;
  (* per-run accumulator: expected decision count and running checks *)
  let runs = ref 0 and decisions = ref 0 in
  let expect = ref 0 (* decision lines owed by the current header *) in
  let first_seq = ref 0 and next_seq = ref 0 and last_t = ref neg_infinity in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      if not (starts_with "{" line && String.length line > 1) then
        fail "%s:%d: not a JSON object line" file lineno;
      match field_raw ~file ~lineno line "type" with
      | "\"run\"" ->
          if !expect > 0 then
            fail "%s:%d: new run header but %d decisions still owed" file
              lineno !expect;
          let schema = field_raw ~file ~lineno line "schema" in
          if schema <> Printf.sprintf "%S" "decision_trace/1" then
            fail "%s:%d: schema %s, want %S" file lineno schema
              "decision_trace/1";
          let recorded = field_int ~file ~lineno line "decisions" in
          let retained = field_int ~file ~lineno line "retained" in
          let dropped = field_int ~file ~lineno line "dropped" in
          if recorded <> retained + dropped then
            fail "%s:%d: decisions %d <> retained %d + dropped %d" file
              lineno recorded retained dropped;
          expect := retained;
          first_seq := dropped;
          next_seq := dropped;
          last_t := neg_infinity;
          incr runs
      | "\"decision\"" ->
          if !expect = 0 then
            fail "%s:%d: decision line without a run header" file lineno;
          decr expect;
          incr decisions;
          let seq = field_int ~file ~lineno line "seq" in
          if seq <> !next_seq then
            fail "%s:%d: seq %d, want %d" file lineno seq !next_seq;
          incr next_seq;
          let t = field_float ~file ~lineno line "t" in
          if t < !last_t then
            fail "%s:%d: time went backwards (%.3f after %.3f)" file lineno
              t !last_t;
          last_t := t;
          let nonneg k =
            if field_int ~file ~lineno line k < 0 then
              fail "%s:%d: negative %S" file lineno k
          in
          List.iter nonneg
            [ "queue"; "started"; "nodes"; "leaves"; "iters"; "budget";
              "improvements" ];
          let searched = field_bool ~file ~lineno line "searched" in
          let budget = field_int ~file ~lineno line "budget" in
          let nodes = field_int ~file ~lineno line "nodes" in
          let improvements = field_int ~file ~lineno line "improvements" in
          if budget > 0 && not searched then
            fail "%s:%d: budget %d on an unsearched decision" file lineno
              budget;
          if budget > 0 && nodes < 1 then
            fail "%s:%d: searched under budget %d but visited no node" file
              lineno budget;
          if budget > 0 && improvements < 1 then
            fail
              "%s:%d: searched decision without the heuristic incumbent"
              file lineno;
          ignore (field_bool ~file ~lineno line "exhausted")
      | other -> fail "%s:%d: unknown line type %s" file lineno other)
    lines;
  if !expect > 0 then
    fail "%s: truncated: last run owes %d decisions" file !expect;
  Printf.printf "%s: OK (%d runs, %d decisions)\n" file !runs !decisions

(* --- JSONL (run_series/1) --- *)

let validate_series_jsonl file =
  let lines = read_lines file in
  if lines = [] then fail "%s: empty series export" file;
  let runs = ref 0 and total_samples = ref 0 in
  let expect = ref 0 (* sample lines owed by the current header *) in
  let next_i = ref 0 and last_t = ref neg_infinity in
  let stride = ref 0 and observed = ref 0 and committed = ref 0 in
  let last_excess = ref 0.0 and excess_total = ref 0.0 in
  let finish_run lineno =
    if !expect > 0 then
      fail "%s:%d: truncated: run owes %d samples" file lineno !expect;
    if !runs > 0 then begin
      if !observed - !committed >= !stride then
        fail "%s:%d: %d observations never committed (stride %d)" file
          lineno (!observed - !committed) !stride;
      if !last_excess > !excess_total +. 0.002 then
        fail "%s:%d: sample excess %.3f exceeds run total %.3f" file lineno
          !last_excess !excess_total
    end
  in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      if not (starts_with "{" line && String.length line > 1) then
        fail "%s:%d: not a JSON object line" file lineno;
      match field_raw ~file ~lineno line "type" with
      | "\"run\"" ->
          finish_run lineno;
          let schema = field_raw ~file ~lineno line "schema" in
          if schema <> Printf.sprintf "%S" Sim.Series.schema then
            fail "%s:%d: schema %s, want %S" file lineno schema
              Sim.Series.schema;
          let samples = field_int ~file ~lineno line "samples" in
          let capacity = field_int ~file ~lineno line "capacity" in
          if samples > capacity then
            fail "%s:%d: %d samples exceed capacity %d" file lineno samples
              capacity;
          observed := field_int ~file ~lineno line "observed";
          stride := field_int ~file ~lineno line "stride";
          if !stride < 1 then fail "%s:%d: stride < 1" file lineno;
          excess_total := field_float ~file ~lineno line "excess_total";
          if !excess_total < 0.0 then
            fail "%s:%d: negative excess_total" file lineno;
          expect := samples;
          next_i := 0;
          committed := 0;
          last_t := neg_infinity;
          last_excess := 0.0;
          incr runs
      | "\"sample\"" ->
          if !runs = 0 then
            fail "%s:%d: sample line without a run header" file lineno;
          if !expect = 0 then
            fail "%s:%d: more samples than the header declared" file lineno;
          decr expect;
          incr total_samples;
          let idx = field_int ~file ~lineno line "i" in
          if idx <> !next_i then
            fail "%s:%d: sample index %d, want %d" file lineno idx !next_i;
          incr next_i;
          let t = field_float ~file ~lineno line "t" in
          if t < !last_t then
            fail "%s:%d: time went backwards (%.3f after %.3f)" file lineno
              t !last_t;
          last_t := t;
          let span = field_int ~file ~lineno line "span" in
          if span <> !stride then
            fail "%s:%d: span %d, want stride %d" file lineno span !stride;
          committed := !committed + span;
          if !committed > !observed then
            fail "%s:%d: committed spans exceed observed %d" file lineno
              !observed;
          let triple key =
            let v = field_int ~file ~lineno line key in
            let lo = field_int ~file ~lineno line (key ^ "_min") in
            let hi = field_int ~file ~lineno line (key ^ "_max") in
            if not (lo <= v && v <= hi && lo >= 0) then
              fail "%s:%d: %s envelope violated (%d <= %d <= %d)" file
                lineno key lo v hi
          in
          List.iter triple [ "busy"; "queue"; "demand"; "running" ];
          let w = field_float ~file ~lineno line "max_wait" in
          let wlo = field_float ~file ~lineno line "max_wait_min" in
          let whi = field_float ~file ~lineno line "max_wait_max" in
          if not (wlo <= w && w <= whi && wlo >= 0.0) then
            fail "%s:%d: max_wait envelope violated" file lineno;
          let excess = field_float ~file ~lineno line "excess" in
          if excess < !last_excess then
            fail "%s:%d: cumulative excess decreased" file lineno;
          last_excess := excess
      | other -> fail "%s:%d: unknown line type %s" file lineno other)
    lines;
  finish_run (List.length lines);
  if !runs = 0 then fail "%s: no run headers" file;
  Printf.printf "%s: OK (%d runs, %d samples)\n" file !runs !total_samples

(* --- Chrome trace_event document --- *)

let validate_chrome file =
  let lines = read_lines file in
  (match lines with
  | first :: _ when starts_with "{\"traceEvents\":[" first -> ()
  | _ -> fail "%s: not a traceEvents document" file);
  let events = ref 0 in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      if starts_with "{\"name\":" line then begin
        incr events;
        match field_raw ~file ~lineno line "ph" with
        | "\"X\"" ->
            if field_float ~file ~lineno line "dur" < 0.0 then
              fail "%s:%d: negative span duration" file lineno
        | "\"M\"" | "\"C\"" -> ()
        | ph -> fail "%s:%d: unexpected phase %s" file lineno ph
      end)
    lines;
  if !events = 0 then fail "%s: no trace events" file;
  Printf.printf "%s: OK (%d events)\n" file !events

(* --- HTML run report --- *)

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  go 0

let count_occurrences hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i acc =
    if i + m > n then acc
    else if String.sub hay i m = needle then go (i + m) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let read_all file =
  let lines = read_lines file in
  String.concat "\n" lines

let validate_html file =
  let doc = read_all file in
  if not (starts_with "<!doctype html>" doc) then
    fail "%s: missing html doctype" file;
  if not (contains doc "</html>") then fail "%s: unterminated document" file;
  if contains doc "<script" then
    fail "%s: report pages must not contain JavaScript" file;
  if contains doc "href=\"http" || contains doc "src=" then
    fail "%s: report pages must be self-contained (external reference)" file;
  if not (contains doc "prefers-color-scheme: dark") then
    fail "%s: missing dark-mode palette" file;
  let svgs = count_occurrences doc "<svg" in
  if contains doc "class=\"chart\"" then begin
    (* a run-health page: six signal charts, each with at least a line *)
    if svgs < 6 then fail "%s: %d charts, want >= 6" file svgs;
    if count_occurrences doc "polyline class=\"line\"" < 6 then
      fail "%s: charts without data lines" file;
    if not (contains doc "<table") then fail "%s: missing summary table" file
  end
  else if not (contains doc "<table") && svgs = 0 then
    fail "%s: neither charts nor tables" file;
  Printf.printf "%s: OK (%d charts)\n" file svgs

(* --- OpenMetrics exposition --- *)

(* A search policy's run exposes exactly these families, in this order
   (Sim.Run_metrics' registration order): the run-health eight, then
   the search-effort six.  Each comes with the sample line it must
   carry. *)
let search_families =
  [
    ("schedsim_queue_depth", "histogram", "_count");
    ("schedsim_wait_seconds", "histogram", "_count");
    ("schedsim_backlog_nodes", "gauge", "");
    ("schedsim_busy_nodes", "gauge", "");
    ("schedsim_queue_jobs", "gauge", "");
    ("schedsim_jobs_completed", "counter", "_total");
    ("schedsim_jobs_started", "counter", "_total");
    ("schedsim_decisions", "counter", "_total");
    ("schedsim_search_decisions", "counter", "_total");
    ("schedsim_search_nodes", "counter", "_total");
    ("schedsim_search_leaves", "counter", "_total");
    ("schedsim_search_exhausted", "counter", "_total");
    ("schedsim_search_improvements", "counter", "_total");
    ("schedsim_search_nodes_per_decision", "histogram", "_count");
  ]

let validate_openmetrics ~search file =
  let lines = read_lines file in
  if search then begin
    let types = List.filter (starts_with "# TYPE ") lines in
    let want =
      List.map
        (fun (name, kind, _) -> Printf.sprintf "# TYPE %s %s" name kind)
        search_families
    in
    if types <> want then
      fail "%s: families\n  %s\nwant, in this order,\n  %s" file
        (String.concat "\n  " types)
        (String.concat "\n  " want);
    List.iter
      (fun (name, _, suffix) ->
        let sample = name ^ suffix ^ " " in
        if not (List.exists (starts_with sample) lines) then
          fail "%s: missing sample %s" file (name ^ suffix))
      search_families
  end;
  (match List.rev lines with
  | "# EOF" :: _ -> ()
  | _ -> fail "%s: exposition must end with # EOF" file);
  let families = ref 0 and samples = ref 0 in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      if line = "" then ()
      else if starts_with "# TYPE " line then begin
        incr families;
        match List.rev (String.split_on_char ' ' line) with
        | ("counter" | "gauge" | "histogram") :: _ -> ()
        | kind :: _ -> fail "%s:%d: unknown metric type %s" file lineno kind
        | [] -> assert false
      end
      else if starts_with "# HELP " line || line = "# EOF" then ()
      else if starts_with "#" line then
        fail "%s:%d: malformed comment line" file lineno
      else begin
        (* sample line: name[{labels}] value *)
        incr samples;
        match String.rindex_opt line ' ' with
        | None -> fail "%s:%d: sample line without a value" file lineno
        | Some sp -> (
            let v = String.sub line (sp + 1) (String.length line - sp - 1) in
            match float_of_string_opt v with
            | Some f when f >= 0.0 || f = neg_infinity -> ()
            | Some _ -> fail "%s:%d: negative sample value" file lineno
            | None -> fail "%s:%d: unparsable value %s" file lineno v)
      end)
    lines;
  if !families = 0 then fail "%s: no metric families" file;
  if !samples = 0 then fail "%s: no samples" file;
  Printf.printf "%s: OK (%d families, %d samples)\n" file !families !samples

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let search = List.mem "--search" args in
  let args = List.filter (( <> ) "--search") args in
  if args = [] then
    fail
      "usage: validate_trace.exe [--search] \
       FILE.jsonl|FILE.json|FILE.html|FILE.om ...";
  List.iter
    (fun file ->
      let head =
        let ic = try open_in file with Sys_error m -> fail "%s" m in
        let n = min 64 (in_channel_length ic) in
        let s = really_input_string ic n in
        close_in ic;
        s
      in
      if starts_with "{\"traceEvents\"" head then validate_chrome file
      else if starts_with "<!doctype" head then validate_html file
      else if starts_with "#" head then validate_openmetrics ~search file
      else if contains head "\"schema\":\"run_series/" then
        validate_series_jsonl file
      else validate_jsonl file)
    args
