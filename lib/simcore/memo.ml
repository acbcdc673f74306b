type 'v state = Pending | Ready of 'v | Failed of exn

(* Each key owns a promise cell with its own lock so waiting for one
   key never blocks computation of another. *)
type 'v cell = { m : Mutex.t; c : Condition.t; mutable state : 'v state }

type ('k, 'v) t = { lock : Mutex.t; table : ('k, 'v cell) Hashtbl.t }

let create ?(size = 64) () =
  { lock = Mutex.create (); table = Hashtbl.create size }

let await cell =
  Mutex.lock cell.m;
  let rec go () =
    match cell.state with
    | Pending ->
        Condition.wait cell.c cell.m;
        go ()
    | Ready v ->
        Mutex.unlock cell.m;
        v
    | Failed e ->
        Mutex.unlock cell.m;
        raise e
  in
  go ()

let get t key thunk =
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.table key with
  | Some cell ->
      Mutex.unlock t.lock;
      await cell
  | None ->
      let cell =
        { m = Mutex.create (); c = Condition.create (); state = Pending }
      in
      Hashtbl.add t.table key cell;
      Mutex.unlock t.lock;
      let outcome = try Ready (thunk ()) with e -> Failed e in
      Mutex.lock cell.m;
      cell.state <- outcome;
      Condition.broadcast cell.c;
      Mutex.unlock cell.m;
      (match outcome with
      | Ready v -> v
      | Failed e -> raise e
      | Pending -> assert false)

let bindings t =
  Mutex.lock t.lock;
  let cells = Hashtbl.fold (fun k cell acc -> (k, cell) :: acc) t.table [] in
  Mutex.unlock t.lock;
  List.filter_map
    (fun (k, cell) ->
      Mutex.lock cell.m;
      let s = cell.state in
      Mutex.unlock cell.m;
      match s with Ready v -> Some (k, v) | Pending | Failed _ -> None)
    cells

let clear t =
  Mutex.lock t.lock;
  Hashtbl.reset t.table;
  Mutex.unlock t.lock
