type t = { total : float; count : int; average : float }

let compute ~threshold outcomes =
  let total, count =
    List.fold_left
      (fun (total, count) o ->
        let e = Outcome.excess_wait o ~threshold in
        if e > 0.0 then (total +. e, count + 1) else (total, count))
      (0.0, 0) outcomes
  in
  let average = if count = 0 then 0.0 else total /. float_of_int count in
  { total; count; average }

let total_hours t = Simcore.Units.to_hours t.total
let average_hours t = Simcore.Units.to_hours t.average
