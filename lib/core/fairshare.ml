type account = { mutable value : float; mutable updated : float }

type t = (int, account) Hashtbl.t

let half_life = Simcore.Units.week

let create () : t = Hashtbl.create 64

let decay account ~now =
  if now > account.updated then begin
    let halvings = (now -. account.updated) /. half_life in
    account.value <- account.value *. (2.0 ** -.halvings);
    account.updated <- now
  end

let record_start t ~now ~nodes ~duration ~user =
  if user > 0 then begin
    let account =
      match Hashtbl.find_opt t user with
      | Some a -> a
      | None ->
          let a = { value = 0.0; updated = now } in
          Hashtbl.add t user a;
          a
    in
    decay account ~now;
    account.value <- account.value +. (float_of_int nodes *. duration)
  end

let usage t ~now user =
  match Hashtbl.find_opt t user with
  | None -> 0.0
  | Some account ->
      decay account ~now;
      account.value

let total t ~now =
  Hashtbl.fold
    (fun _ account acc ->
      decay account ~now;
      acc +. account.value)
    t 0.0

let share t ~now user =
  let all = total t ~now in
  if all <= 0.0 then 0.0 else usage t ~now user /. all

let threshold_factor t ~now ~penalty user =
  1.0 +. (penalty *. share t ~now user)
