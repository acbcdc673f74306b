type t = {
  id : int;
  submit : float;
  nodes : int;
  runtime : float;
  requested : float;
  user : int;
}

let make ~id ~submit ~nodes ~runtime ~requested ~user =
  (* every comparison below is false for NaN, so check finiteness first *)
  if not (Float.is_finite submit && Float.is_finite runtime
          && Float.is_finite requested)
  then invalid_arg "Job.v: non-finite time";
  if nodes < 1 then invalid_arg "Job.v: nodes must be >= 1";
  if runtime <= 0.0 then invalid_arg "Job.v: runtime must be positive";
  if requested < runtime then invalid_arg "Job.v: requested < runtime";
  if submit < 0.0 then invalid_arg "Job.v: negative submit time";
  if user < 0 then invalid_arg "Job.v: negative user";
  { id; submit; nodes; runtime; requested; user }

let v = make ~user:0

let area j = float_of_int j.nodes *. j.runtime

let compare_submit a b =
  let c = Float.compare a.submit b.submit in
  if c <> 0 then c else Int.compare a.id b.id

let equal a b = a.id = b.id

let size_range8 n =
  if n <= 1 then 0
  else if n = 2 then 1
  else if n <= 4 then 2
  else if n <= 8 then 3
  else if n <= 16 then 4
  else if n <= 32 then 5
  else if n <= 64 then 6
  else 7

let node_class5 n =
  if n <= 1 then 0
  else if n = 2 then 1
  else if n <= 8 then 2
  else if n <= 32 then 3
  else 4

let node_class5_label = function
  | 0 -> "1"
  | 1 -> "2"
  | 2 -> "3-8"
  | 3 -> "9-32"
  | 4 -> "33-128"
  | i -> invalid_arg (Printf.sprintf "Job.node_class5_label: %d" i)

let runtime_class5 t =
  let open Simcore.Units in
  if t <= minutes 10.0 then 0
  else if t <= hour then 1
  else if t <= hours 4.0 then 2
  else if t <= hours 8.0 then 3
  else 4

let runtime_class5_label = function
  | 0 -> "<=10m"
  | 1 -> "10m-1h"
  | 2 -> "1h-4h"
  | 3 -> "4h-8h"
  | 4 -> ">8h"
  | i -> invalid_arg (Printf.sprintf "Job.runtime_class5_label: %d" i)
