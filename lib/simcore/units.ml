let minute = 60.0
let hour = 3600.0
let day = 86_400.0
let week = 604_800.0
let minutes m = m *. minute
let hours h = h *. hour
let days d = d *. day
let to_minutes s = s /. minute
let to_hours s = s /. hour
let to_days s = s /. day

let pp_duration fmt s =
  let abs = Float.abs s in
  if abs >= day then Format.fprintf fmt "%.2fd" (to_days s)
  else if abs >= hour then Format.fprintf fmt "%.2fh" (to_hours s)
  else if abs >= minute then Format.fprintf fmt "%.1fm" (to_minutes s)
  else Format.fprintf fmt "%.1fs" s
