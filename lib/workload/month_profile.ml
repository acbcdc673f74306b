type t = {
  label : string;
  n_jobs : int;
  load : float;
  runtime_limit : float;
  jobs8 : float array;
  demand8 : float array;
  short5 : float array;
  long5 : float array;
}

let capacity = 128
let span = 30.0 *. Simcore.Units.day
let h12 = Simcore.Units.hours 12.0
let h24 = Simcore.Units.hours 24.0

(* Table 3 columns: 1, 2, 3-4, 5-8, 9-16, 17-32, 33-64, 65-128.
   Table 4 classes: 1, 2, 3-8, 9-32, 33-128. *)
let all =
  [|
    { label = "6/03"; n_jobs = 2191; load = 0.82; runtime_limit = h12;
      jobs8 = [| 26.7; 11.3; 29.8; 6.3; 8.5; 10.5; 3.7; 2.4 |];
      demand8 = [| 0.3; 0.1; 1.3; 1.1; 23.0; 37.4; 21.7; 14.6 |];
      short5 = [| 24.9; 11.1; 34.7; 6.2; 3.0 |];
      long5 = [| 0.3; 0.0; 0.7; 7.0; 1.7 |] };
    { label = "7/03"; n_jobs = 1399; load = 0.89; runtime_limit = h12;
      jobs8 = [| 26.2; 9.1; 6.9; 18.4; 7.9; 13.2; 8.4; 8.5 |];
      demand8 = [| 0.5; 0.2; 0.4; 3.6; 6.7; 16.9; 21.3; 49.7 |];
      short5 = [| 20.9; 7.7; 18.5; 13.4; 9.4 |];
      long5 = [| 2.4; 0.4; 3.0; 5.0; 4.6 |] };
    { label = "8/03"; n_jobs = 3220; load = 0.79; runtime_limit = h12;
      jobs8 = [| 74.6; 5.4; 1.3; 4.9; 4.9; 4.6; 1.8; 2.1 |];
      demand8 = [| 1.7; 0.7; 0.1; 3.5; 9.6; 30.8; 17.9; 35.5 |];
      short5 = [| 68.8; 4.3; 4.7; 4.6; 1.8 |];
      long5 = [| 2.5; 0.7; 1.0; 3.5; 1.4 |] };
    { label = "9/03"; n_jobs = 3056; load = 0.72; runtime_limit = h12;
      jobs8 = [| 58.0; 10.4; 6.4; 5.8; 6.6; 8.4; 1.1; 2.9 |];
      demand8 = [| 3.1; 0.5; 0.5; 4.3; 8.8; 35.4; 12.4; 34.6 |];
      short5 = [| 42.6; 9.8; 9.9; 10.9; 2.4 |];
      long5 = [| 3.9; 0.4; 1.3; 2.9; 1.2 |] };
    { label = "10/03"; n_jobs = 4149; load = 0.71; runtime_limit = h12;
      jobs8 = [| 53.8; 20.5; 5.8; 8.8; 5.5; 3.6; 1.6; 0.3 |];
      demand8 = [| 4.7; 6.6; 1.6; 10.1; 17.3; 25.3; 24.1; 10.2 |];
      short5 = [| 37.5; 8.3; 10.1; 4.9; 0.7 |];
      long5 = [| 4.1; 3.1; 2.1; 3.3; 0.8 |] };
    { label = "11/03"; n_jobs = 3446; load = 0.73; runtime_limit = h12;
      jobs8 = [| 60.1; 17.4; 4.9; 5.3; 3.6; 4.1; 3.7; 0.8 |];
      demand8 = [| 8.0; 3.7; 0.9; 4.4; 11.6; 11.1; 37.0; 23.3 |];
      short5 = [| 33.7; 12.5; 6.8; 5.1; 2.1 |];
      long5 = [| 8.7; 4.4; 1.4; 1.9; 1.6 |] };
    { label = "12/03"; n_jobs = 3517; load = 0.74; runtime_limit = h24;
      jobs8 = [| 64.1; 12.5; 6.8; 3.5; 3.7; 5.9; 2.7; 0.9 |];
      demand8 = [| 11.0; 5.1; 2.1; 9.5; 18.9; 8.0; 39.7; 6.1 |];
      short5 = [| 36.0; 6.5; 6.2; 7.0; 1.7 |];
      long5 = [| 14.0; 4.4; 2.7; 1.7; 1.0 |] };
    { label = "1/04"; n_jobs = 3154; load = 0.73; runtime_limit = h24;
      jobs8 = [| 39.0; 18.3; 4.6; 9.2; 18.1; 5.3; 1.7; 1.2 |];
      demand8 = [| 12.0; 8.8; 3.7; 17.3; 17.9; 10.0; 17.1; 18.0 |];
      short5 = [| 12.9; 6.0; 7.1; 20.5; 1.9 |];
      long5 = [| 23.1; 5.0; 2.4; 1.5; 0.7 |] };
    { label = "2/04"; n_jobs = 3969; load = 0.74; runtime_limit = h24;
      jobs8 = [| 44.1; 31.8; 4.5; 4.6; 2.5; 11.7; 1.7; 0.8 |];
      demand8 = [| 7.7; 9.9; 7.0; 18.8; 20.3; 10.3; 8.1; 16.4 |];
      short5 = [| 34.1; 20.5; 9.9; 4.6; 1.9 |];
      long5 = [| 6.8; 3.6; 3.3; 1.7; 0.3 |] };
    { label = "3/04"; n_jobs = 3468; load = 0.75; runtime_limit = h24;
      jobs8 = [| 57.5; 13.1; 7.6; 5.8; 2.3; 8.3; 1.6; 1.7 |];
      demand8 = [| 2.8; 4.6; 7.7; 8.3; 37.6; 16.8; 6.3; 15.9 |];
      short5 = [| 53.2; 10.1; 13.9; 4.5; 2.5 |];
      long5 = [| 3.0; 2.6; 3.2; 2.9; 0.3 |] };
  |]

let find label =
  match Array.find_opt (fun m -> String.equal m.label label) all with
  | Some m -> m
  | None -> raise Not_found

(* Map the eight Table 3 ranges onto the five Table 4 classes:
   1 -> 1; 2 -> 2; {3-4, 5-8} -> 3-8; {9-16, 17-32} -> 9-32;
   {33-64, 65-128} -> 33-128. *)
let jobs5 m =
  [|
    m.jobs8.(0);
    m.jobs8.(1);
    m.jobs8.(2) +. m.jobs8.(3);
    m.jobs8.(4) +. m.jobs8.(5);
    m.jobs8.(6) +. m.jobs8.(7);
  |]

let conditional numer denom =
  if denom <= 0.0 then 0.0 else Float.max 0.0 (Float.min 1.0 (numer /. denom))

let short_given_class m c = conditional m.short5.(c) (jobs5 m).(c)

let long_given_class m c =
  let short = short_given_class m c in
  let long = conditional m.long5.(c) (jobs5 m).(c) in
  Float.min long (1.0 -. short)

let class_tables m =
  (Array.init 5 (short_given_class m), Array.init 5 (long_given_class m))

let pp fmt m =
  Format.fprintf fmt "%s: %d jobs, load %.0f%%, limit %a" m.label m.n_jobs
    (100.0 *. m.load) Simcore.Units.pp_duration m.runtime_limit
