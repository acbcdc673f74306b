(* Gauges keep their level in a one-element float array: a mutable
   float field in a mixed record would box on every store, a float
   array store stays unboxed. *)

type counter = { c_name : string; c_help : string; mutable c_value : int }
type gauge = { g_name : string; g_help : string; g_cell : float array }

type histogram = {
  h_name : string;
  h_help : string;
  h_counts : int array;  (* length [buckets] *)
  mutable h_count : int;
  mutable h_total : int;
}

type item = Counter of counter | Gauge of gauge | Histogram of histogram

type t = { mutable items : item list (* newest first *) }

let create () = { items = [] }

(* Bucket 0 (v <= 0) plus one bucket per magnitude bit: max_int has
   [Sys.int_size - 1 = 62] significant bits, so 63 buckets cover
   every OCaml int and every index is reachable — a 64th would have
   an unrepresentable lower bound (1 lsl 62 overflows). *)
let buckets = 63

(* Bucket 0 holds values [<= 0]; bucket [b >= 1] holds values in
   [2^(b-1) .. 2^b - 1], with the top bucket extending to [max_int].
   floor(log2 v) + 1 for v >= 1; 0 for v <= 0.  The shift walk beats
   a float log and cannot disagree with the bucket bounds below. *)
let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 in
    let v = ref v in
    while !v > 0 do
      Stdlib.incr b;
      v := !v lsr 1
    done;
    if !b > buckets - 1 then buckets - 1 else !b
  end

let bucket_hi b =
  if b <= 0 then 0 else if b >= buckets - 1 then max_int else (1 lsl b) - 1

let item_name = function
  | Counter c -> c.c_name
  | Gauge g -> g.g_name
  | Histogram h -> h.h_name

let valid_name s =
  let ok_first c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'
  in
  let ok c = ok_first c || (c >= '0' && c <= '9') in
  s <> ""
  && ok_first s.[0]
  && (let good = ref true in
      String.iter (fun c -> if not (ok c) then good := false) s;
      !good)

let register t name item =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Metrics: invalid metric name %S" name);
  if List.exists (fun i -> item_name i = name) t.items then
    invalid_arg (Printf.sprintf "Metrics: duplicate metric name %S" name);
  t.items <- item :: t.items

let counter t ?(help = "") name =
  let c = { c_name = name; c_help = help; c_value = 0 } in
  register t name (Counter c);
  c

let gauge t ?(help = "") name =
  let g = { g_name = name; g_help = help; g_cell = Array.make 1 0.0 } in
  register t name (Gauge g);
  g

let histogram t ?(help = "") name =
  let h =
    {
      h_name = name;
      h_help = help;
      h_counts = Array.make buckets 0;
      h_count = 0;
      h_total = 0;
    }
  in
  register t name (Histogram h);
  h

let incr c = c.c_value <- c.c_value + 1
let add c n = c.c_value <- c.c_value + n
let counter_value c = c.c_value

let set g v = g.g_cell.(0) <- v

let observe h v =
  let b = bucket_of v in
  h.h_counts.(b) <- h.h_counts.(b) + 1;
  h.h_count <- h.h_count + 1;
  h.h_total <- h.h_total + v

(* --- OpenMetrics text exposition --- *)

(* HELP text escaping per the exposition format: backslash and newline. *)
let escape_help s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Gauge levels are seconds/lengths: print integers without a mantissa
   so expositions stay stable and grep-able. *)
let pp_float fmt v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Format.fprintf fmt "%.0f" v
  else Format.fprintf fmt "%g" v

let pp_header fmt ~name ~kind ~help =
  Format.fprintf fmt "# TYPE %s %s@." name kind;
  if help <> "" then Format.fprintf fmt "# HELP %s %s@." name (escape_help help)

let pp_item fmt = function
  | Counter c ->
      pp_header fmt ~name:c.c_name ~kind:"counter" ~help:c.c_help;
      Format.fprintf fmt "%s_total %d@." c.c_name c.c_value
  | Gauge g ->
      pp_header fmt ~name:g.g_name ~kind:"gauge" ~help:g.g_help;
      Format.fprintf fmt "%s %a@." g.g_name pp_float g.g_cell.(0)
  | Histogram h ->
      pp_header fmt ~name:h.h_name ~kind:"histogram" ~help:h.h_help;
      let cum = ref 0 in
      for b = 0 to buckets - 1 do
        if h.h_counts.(b) > 0 then begin
          cum := !cum + h.h_counts.(b);
          Format.fprintf fmt "%s_bucket{le=\"%d\"} %d@." h.h_name
            (bucket_hi b) !cum
        end
      done;
      Format.fprintf fmt "%s_bucket{le=\"+Inf\"} %d@." h.h_name h.h_count;
      Format.fprintf fmt "%s_count %d@." h.h_name h.h_count;
      Format.fprintf fmt "%s_sum %d@." h.h_name h.h_total

let pp_openmetrics fmt t =
  List.iter (pp_item fmt) (List.rev t.items);
  Format.fprintf fmt "# EOF@."
