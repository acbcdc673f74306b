(* Static HTML rendering of run-health series: inline SVG line charts
   with a min/max envelope band per run, no JavaScript, no external
   assets.  Categorical palette (fixed order, CVD-validated, with a
   dark-mode variant selected separately) lives in the embedded CSS as
   custom properties --s1..--s8. *)

let max_runs = 8

(* --- small HTML/number helpers --- *)

let html_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let fnum v =
  if Float.is_integer v && Float.abs v < 1e7 then Printf.sprintf "%.0f" v
  else if Float.abs v >= 100.0 then Printf.sprintf "%.0f" v
  else if Float.abs v >= 10.0 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.2f" v

(* --- signal descriptors --- *)

type signal = {
  title : string;
  unit_ : string;
  scale : float;  (* display = raw * scale *)
  band : Series.sample -> float Series.band;
}

let hours = 1.0 /. 3600.0

let ints (b : int Series.band) : float Series.band =
  { v = float_of_int b.v; lo = float_of_int b.lo; hi = float_of_int b.hi }

let signals =
  [
    {
      title = "Busy nodes";
      unit_ = "nodes";
      scale = 1.0;
      band = (fun s -> ints s.busy);
    };
    {
      title = "Waiting jobs";
      unit_ = "jobs";
      scale = 1.0;
      band = (fun s -> ints s.queue);
    };
    {
      title = "Backlog (nodes demanded by waiting jobs)";
      unit_ = "nodes";
      scale = 1.0;
      band = (fun s -> ints s.demand);
    };
    {
      title = "Running jobs";
      unit_ = "jobs";
      scale = 1.0;
      band = (fun s -> ints s.running);
    };
    {
      title = "Longest current wait";
      unit_ = "hours";
      scale = hours;
      band = (fun s -> s.max_wait);
    };
    {
      title = "Cumulative excessive wait";
      unit_ = "hours";
      scale = hours;
      band = (fun s -> { v = s.excess; lo = s.excess; hi = s.excess });
    };
  ]

(* --- chart geometry --- *)

let width = 720.0
let height = 150.0
let mleft = 52.0
let mright = 10.0
let mtop = 10.0
let mbottom = 22.0
let plot_w = width -. mleft -. mright
let plot_h = height -. mtop -. mbottom
let max_points = 360

let day = 86400.0

(* Thin a sample list to at most [max_points] groups: the drawn point
   is the group's last sample, the band is the group's envelope. *)
let thin samples =
  let arr = Array.of_list samples in
  let n = Array.length arr in
  if n = 0 then []
  else begin
    let k = (n + max_points - 1) / max_points in
    let groups = (n + k - 1) / k in
    List.init groups (fun g ->
        let first = g * k and last = min ((g * k) + k - 1) (n - 1) in
        let acc = ref arr.(first) in
        for i = first + 1 to last do
          acc := Series.merge !acc arr.(i)
        done;
        !acc)
  end

let coord v = Printf.sprintf "%.1f" v

let chart buf signal runs =
  (* Shared domains across the drawn runs. *)
  let drawn =
    List.filteri (fun i _ -> i < max_runs) runs
    |> List.filter_map (fun (label, series) ->
           match Series.samples series with
           | [] -> None
           | samples -> Some (label, thin samples))
  in
  match drawn with
  | [] ->
      Buffer.add_string buf "<p class=\"muted\">no observations</p>\n"
  | _ :: _ ->
      let tmin = ref infinity and tmax = ref neg_infinity in
      let vmax = ref 0.0 in
      List.iter
        (fun (_, samples) ->
          List.iter
            (fun s ->
              tmin := Float.min !tmin s.Series.t;
              tmax := Float.max !tmax s.Series.t;
              vmax := Float.max !vmax ((signal.band s).hi *. signal.scale))
            samples)
        drawn;
      let tspan = Float.max (!tmax -. !tmin) 1e-9 in
      let vmax = if !vmax <= 0.0 then 1.0 else !vmax in
      let x t = mleft +. ((t -. !tmin) /. tspan *. plot_w) in
      let y v =
        mtop +. plot_h -. (Float.min v vmax /. vmax *. plot_h)
      in
      Buffer.add_string buf
        (Printf.sprintf
           "<svg viewBox=\"0 0 %.0f %.0f\" role=\"img\" aria-label=\"%s\">\n"
           width height
           (html_escape (signal.title ^ " over simulated time")));
      (* recessive grid: baseline, mid, top *)
      List.iter
        (fun frac ->
          let gy = mtop +. (plot_h *. (1.0 -. frac)) in
          Buffer.add_string buf
            (Printf.sprintf
               "<line class=\"grid\" x1=\"%s\" y1=\"%s\" x2=\"%s\" y2=\"%s\"/>\n"
               (coord mleft) (coord gy) (coord (width -. mright)) (coord gy)))
        [ 0.0; 0.5; 1.0 ];
      (* y labels: 0 and max; x labels: first and last day *)
      Buffer.add_string buf
        (Printf.sprintf
           "<text class=\"tick\" x=\"%s\" y=\"%s\" text-anchor=\"end\">%s</text>\n"
           (coord (mleft -. 6.0))
           (coord (mtop +. plot_h +. 4.0))
           "0");
      Buffer.add_string buf
        (Printf.sprintf
           "<text class=\"tick\" x=\"%s\" y=\"%s\" text-anchor=\"end\">%s</text>\n"
           (coord (mleft -. 6.0))
           (coord (mtop +. 8.0))
           (html_escape (fnum vmax)));
      Buffer.add_string buf
        (Printf.sprintf
           "<text class=\"tick\" x=\"%s\" y=\"%s\">day %s</text>\n"
           (coord mleft)
           (coord (height -. 6.0))
           (fnum (!tmin /. day)));
      Buffer.add_string buf
        (Printf.sprintf
           "<text class=\"tick\" x=\"%s\" y=\"%s\" text-anchor=\"end\">day %s</text>\n"
           (coord (width -. mright))
           (coord (height -. 6.0))
           (fnum (!tmax /. day)));
      (* bands first (under every line), then lines *)
      List.iteri
        (fun i (label, samples) ->
          let color = Printf.sprintf "var(--s%d)" (i + 1) in
          let pts f =
            List.map
              (fun s ->
                Printf.sprintf "%s,%s" (coord (x s.Series.t))
                  (coord (y (f s *. signal.scale))))
              samples
          in
          let upper = pts (fun s -> (signal.band s).hi)
          and lower = List.rev (pts (fun s -> (signal.band s).lo)) in
          Buffer.add_string buf
            (Printf.sprintf
               "<polygon class=\"band\" fill=\"%s\" points=\"%s\"><title>%s \
                (min-max)</title></polygon>\n"
               color
               (String.concat " " (upper @ lower))
               (html_escape label)))
        drawn;
      List.iteri
        (fun i (label, samples) ->
          let color = Printf.sprintf "var(--s%d)" (i + 1) in
          let points =
            List.map
              (fun s ->
                Printf.sprintf "%s,%s" (coord (x s.Series.t))
                  (coord (y ((signal.band s).v *. signal.scale))))
              samples
          in
          Buffer.add_string buf
            (Printf.sprintf
               "<polyline class=\"line\" stroke=\"%s\" points=\"%s\"><title>%s</title></polyline>\n"
               color
               (String.concat " " points)
               (html_escape label)))
        drawn;
      Buffer.add_string buf "</svg>\n"

(* --- legend and summary table --- *)

let legend buf runs =
  if List.length runs >= 2 then begin
    Buffer.add_string buf "<div class=\"legend\">";
    List.iteri
      (fun i (label, _) ->
        if i < max_runs then
          Buffer.add_string buf
            (Printf.sprintf
               "<span class=\"key\"><span class=\"swatch\" \
                style=\"background:var(--s%d)\"></span>%s</span>"
               (i + 1) (html_escape label)))
      runs;
    let extra = List.length runs - max_runs in
    if extra > 0 then
      Buffer.add_string buf
        (Printf.sprintf
           "<span class=\"key muted\">+%d more in the table only</span>"
           extra);
    Buffer.add_string buf "</div>\n"
  end

let find_summary rows key =
  List.find_opt (fun r -> r.Series.label = key) rows

let summary_table buf runs =
  Buffer.add_string buf
    "<table>\n<thead><tr><th>run</th><th>observed</th><th>samples</th>\
     <th>avg busy</th><th>avg queue</th><th>avg backlog</th>\
     <th>avg running</th><th>peak wait (h)</th><th>excess (h)</th></tr>\
     </thead>\n<tbody>\n";
  List.iteri
    (fun i (label, series) ->
      let rows = Series.summary series in
      let cell key f =
        match find_summary rows key with
        | None -> "&ndash;"
        | Some r -> html_escape (fnum (f r))
      in
      let swatch =
        if i < max_runs then
          Printf.sprintf
            "<span class=\"swatch\" style=\"background:var(--s%d)\"></span>"
            (i + 1)
        else ""
      in
      Buffer.add_string buf
        (Printf.sprintf
           "<tr><td>%s%s</td><td>%d</td><td>%d&times;%d</td><td>%s</td>\
            <td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n"
           swatch (html_escape label) (Series.observed series)
           (Series.length series) (Series.stride series)
           (cell "busy_nodes" (fun r -> r.Series.avg))
           (cell "queue_jobs" (fun r -> r.Series.avg))
           (cell "backlog_nodes" (fun r -> r.Series.avg))
           (cell "running_jobs" (fun r -> r.Series.avg))
           (cell "max_wait_s" (fun r -> r.Series.hi *. hours))
           (cell "excess_s" (fun r -> r.Series.last *. hours))))
    runs;
  Buffer.add_string buf "</tbody>\n</table>\n"

(* --- document shell --- *)

let css =
  {|:root { color-scheme: light dark;
  --bg: #ffffff; --ink: #1f2328; --muted: #667085; --grid: #e4e7ec;
  --border: #d0d5dd;
  --s1: #2a78d6; --s2: #eb6834; --s3: #1baf7a; --s4: #eda100;
  --s5: #e87ba4; --s6: #008300; --s7: #4a3aa7; --s8: #e34948; }
@media (prefers-color-scheme: dark) { :root {
  --bg: #16181d; --ink: #e6e8eb; --muted: #98a2b3; --grid: #2c313a;
  --border: #3a404c;
  --s1: #3987e5; --s2: #d95926; --s3: #199e70; --s4: #c98500;
  --s5: #d55181; --s6: #008300; --s7: #9085e9; --s8: #e66767; } }
body { background: var(--bg); color: var(--ink);
  font: 15px/1.5 system-ui, sans-serif;
  max-width: 960px; margin: 2rem auto; padding: 0 1rem; }
h1 { font-size: 1.4rem; margin-bottom: 0.2rem; }
h2 { font-size: 1.05rem; margin: 1.6rem 0 0.4rem; }
.muted, .sub { color: var(--muted); }
.sub { margin-top: 0; }
svg { width: 100%; height: auto; display: block; }
svg .grid { stroke: var(--grid); stroke-width: 1; }
svg .tick { fill: var(--muted); font-size: 11px; }
svg .line { fill: none; stroke-width: 2;
  stroke-linejoin: round; stroke-linecap: round; }
svg .band { opacity: 0.14; stroke: none; }
.legend { display: flex; flex-wrap: wrap; gap: 0.3rem 1.1rem;
  margin: 0.6rem 0; }
.key { display: inline-flex; align-items: center; gap: 0.4rem; }
.swatch { display: inline-block; width: 10px; height: 10px;
  border-radius: 2px; margin-right: 0.35rem; }
table { border-collapse: collapse; width: 100%; font-size: 0.88rem;
  font-variant-numeric: tabular-nums; }
th, td { text-align: right; padding: 0.3rem 0.55rem;
  border-bottom: 1px solid var(--grid); white-space: nowrap; }
th:first-child, td:first-child { text-align: left; }
thead th { color: var(--muted); font-weight: 600;
  border-bottom: 1px solid var(--border); }
footer { color: var(--muted); font-size: 0.8rem; margin: 2rem 0 1rem; }
a { color: var(--s1); }
|}

let document ~title body =
  Printf.sprintf
    "<!doctype html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
     <meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">\n\
     <title>%s</title>\n<style>\n%s</style>\n</head>\n<body>\n%s\
     <footer>schedsim run-health report &middot; schema %s &middot; \
     simulated-time axis in days</footer>\n</body>\n</html>\n"
    (html_escape title) css body Series.schema

let page ~title ?subtitle runs =
  let buf = Buffer.create (1 lsl 16) in
  Buffer.add_string buf
    (Printf.sprintf "<h1>%s</h1>\n" (html_escape title));
  Option.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "<p class=\"sub\">%s</p>\n" (html_escape s)))
    subtitle;
  legend buf runs;
  List.iter
    (fun signal ->
      Buffer.add_string buf
        (Printf.sprintf "<h2>%s <span class=\"muted\">(%s)</span></h2>\n"
           (html_escape signal.title) (html_escape signal.unit_));
      chart buf signal runs)
    signals;
  Buffer.add_string buf "<h2>Summary</h2>\n";
  summary_table buf runs;
  document ~title (Buffer.contents buf)

type section = {
  href : string;
  title : string;
  runs : (string * Series.t) list;
}

let index ~title sections =
  let buf = Buffer.create (1 lsl 14) in
  Buffer.add_string buf
    (Printf.sprintf "<h1>%s</h1>\n" (html_escape title));
  Buffer.add_string buf
    (Printf.sprintf
       "<p class=\"sub\">%d report pages; averages are time-weighted over \
        the whole simulation, excess is cumulative excessive wait.</p>\n"
       (List.length sections));
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "<h2><a href=\"%s\">%s</a></h2>\n"
           (html_escape s.href) (html_escape s.title));
      summary_table buf s.runs)
    sections;
  document ~title (Buffer.contents buf)
