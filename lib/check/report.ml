type violation = {
  invariant : string;
  time : float;
  jobs : int list;
  detail : string;
}

type t = {
  subject : string;
  jobs_checked : int;
  decisions_checked : int;
  violations : violation list;
}

let ok t = t.violations = []

let v ~subject ~jobs_checked ~decisions_checked violations =
  { subject; jobs_checked; decisions_checked; violations }

let pp_violation fmt v =
  Format.fprintf fmt "[%s] t=%.17g jobs=[%s]: %s" v.invariant v.time
    (String.concat "," (List.map string_of_int v.jobs))
    v.detail

let pp fmt t =
  Format.fprintf fmt "%s: %d jobs, %d decisions, %d violations" t.subject
    t.jobs_checked t.decisions_checked
    (List.length t.violations);
  List.iter (fun v -> Format.fprintf fmt "@.  %a" pp_violation v) t.violations
