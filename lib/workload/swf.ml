type parse_result = {
  trace : Trace.t;
  skipped : int;
  comments : string list;
}

let is_blank line = String.trim line = ""
let is_comment line = String.length line > 0 && line.[0] = ';'

let fields line =
  String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) line)
  |> List.filter (fun s -> s <> "")

let float_field ~line_number name s =
  match float_of_string_opt s with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "line %d: bad %s field %S" line_number name s)

let ( let* ) = Result.bind

(* One line: [Ok None] for comments, blank lines and unusable jobs,
   [Error msg] for malformed lines. *)
let parse_line ~line_number ~id line =
  if is_blank line || is_comment line then Ok None
  else
    let float_field name s = float_field ~line_number name s in
    match fields line with
    | _job :: submit :: _wait :: runtime :: alloc :: _cpu :: _mem
      :: req_procs :: req_time :: rest ->
        let* submit = float_field "submit" submit in
        let* runtime = float_field "runtime" runtime in
        let* alloc = float_field "allocated-processors" alloc in
        let* req_procs = float_field "requested-processors" req_procs in
        let* req_time = float_field "requested-time" req_time in
        let nodes =
          if req_procs > 0.0 then int_of_float req_procs
          else int_of_float alloc
        in
        let requested = if req_time > 0.0 then req_time else runtime in
        (* field 12 is the user id; tolerate truncated records *)
        let user =
          match rest with
          | _req_mem :: _status :: uid :: _ ->
              Option.value (int_of_string_opt uid) ~default:(-1)
          | _ -> -1
        in
        (* [float_of_string_opt] admits "nan" and "inf" *)
        let finite =
          List.for_all Float.is_finite
            [ submit; runtime; alloc; req_procs; req_time ]
        in
        if (not finite) || runtime <= 0.0 || nodes <= 0 || submit < 0.0 then
          Ok None
        else
          (* [Float.max requested runtime]: both are positive and finite *)
          let requested = if runtime > requested then runtime else requested in
          Ok
            (Some
               (Job.make ~id ~submit ~nodes ~runtime ~requested
                  ~user:(max user 0)))
    | _ ->
        Error
          (Printf.sprintf "line %d: expected >= 9 fields, got %d" line_number
             (List.length (fields line)))

(* Traces exported on Windows (or fetched over HTTP) use CRLF line
   ends; after splitting on '\n' the '\r' would survive into the last
   field of every line and fail [float_of_string_opt]. *)
let strip_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

let of_lines lines =
  let lines = List.map strip_cr lines in
  let rec loop line_number id jobs skipped comments = function
    | [] -> Ok { trace = Trace.v (List.rev jobs); skipped; comments = List.rev comments }
    | line :: rest ->
        if is_comment line then
          loop (line_number + 1) id jobs skipped (line :: comments) rest
        else begin
          match parse_line ~line_number ~id line with
          | Error e -> Error e
          | Ok None ->
              let skipped = if is_blank line then skipped else skipped + 1 in
              loop (line_number + 1) id jobs skipped comments rest
          | Ok (Some job) ->
              loop (line_number + 1) (id + 1) (job :: jobs) skipped comments rest
        end
  in
  loop 1 0 [] 0 [] lines

let of_channel ic =
  let rec read acc =
    match input_line ic with
    | line -> read (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  of_lines (read [])

let of_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> of_channel ic)

let job_line (j : Job.t) =
  (* 18 fields; unknown ones carry the SWF "-1" convention, and the wait
     field is 0. *)
  Printf.sprintf "%d %.0f 0 %.0f %d -1 -1 %d %.0f -1 1 %d -1 -1 -1 -1 -1 -1"
    (j.id + 1) j.submit j.runtime j.nodes j.nodes j.requested
    (if j.user > 0 then j.user else -1)

let to_file ?(comments = []) path trace =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      List.iter (fun c -> output_string oc (c ^ "\n")) comments;
      Array.iter
        (fun j -> output_string oc (job_line j ^ "\n"))
        (Trace.jobs trace))
