module Span = struct
  type t = {
    domain : int;
    batch : int;
    task : int;
    posted_s : float;
    start_s : float;
    stop_s : float;
  }

  let wait_s s = s.start_s -. s.posted_s
  let busy_s s = s.stop_s -. s.start_s
end

(* One batch of work.  Tasks are claimed by a fetch-and-add on [next];
   [completed] is guarded by the pool mutex so the submitter can wait
   for the last task under the same lock the workers signal on. *)
type batch = {
  seq : int;
  posted_s : float;  (* 0.0 when tracing is off *)
  tasks : (unit -> unit) array;
  next : int Atomic.t;
  mutable completed : int;
}

type t = {
  m : Mutex.t;
  work_available : Condition.t; (* new batch posted, or shutdown *)
  batch_done : Condition.t; (* a batch completed / was cleared *)
  mutable current : batch option;
  mutable stop : bool;
  mutable joined : bool;
  mutable workers : unit Domain.t array;
  mutable batch_seq : int;
  mutable trace : bool;
  mutable spans : Span.t list; (* newest first; guarded by [m] *)
}

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

(* Run every still-unclaimed task of [b].  Tasks never raise (they are
   wrapped by [map]); each completion is recorded under the lock so the
   final one can wake the submitter.  [who] is the draining domain's
   slot (0 = the submitting domain) for span attribution; with tracing
   off the only overhead is one boolean test per task. *)
let drain t ~who b =
  let n = Array.length b.tasks in
  let rec go () =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < n then begin
      let traced = t.trace in
      let t0 = if traced then Clock.monotonic_s () else 0.0 in
      b.tasks.(i) ();
      let t1 = if traced then Clock.monotonic_s () else 0.0 in
      Mutex.lock t.m;
      if traced then
        t.spans <-
          {
            Span.domain = who;
            batch = b.seq;
            task = i;
            posted_s = b.posted_s;
            start_s = t0;
            stop_s = t1;
          }
          :: t.spans;
      b.completed <- b.completed + 1;
      if b.completed = n then Condition.broadcast t.batch_done;
      Mutex.unlock t.m;
      go ()
    end
  in
  go ()

let worker t ~who =
  let rec loop () =
    Mutex.lock t.m;
    let rec await () =
      if t.stop then None
      else
        match t.current with
        | Some b when Atomic.get b.next < Array.length b.tasks -> Some b
        | _ ->
            Condition.wait t.work_available t.m;
            await ()
    in
    let claimed = await () in
    Mutex.unlock t.m;
    match claimed with
    | None -> ()
    | Some b ->
        drain t ~who b;
        loop ()
  in
  loop ()

let create ~jobs =
  let width = max jobs 1 in
  let t =
    {
      m = Mutex.create ();
      work_available = Condition.create ();
      batch_done = Condition.create ();
      current = None;
      stop = false;
      joined = false;
      workers = [||];
      batch_seq = 0;
      trace = false;
      spans = [];
    }
  in
  t.workers <-
    Array.init (width - 1) (fun i ->
        Domain.spawn (fun () -> worker t ~who:(i + 1)));
  t

let set_tracing t v =
  Mutex.lock t.m;
  t.trace <- v;
  Mutex.unlock t.m

let spans t =
  Mutex.lock t.m;
  let spans = t.spans in
  Mutex.unlock t.m;
  List.sort
    (fun (a : Span.t) (b : Span.t) ->
      compare (a.batch, a.task) (b.batch, b.task))
    spans

(* Post [tasks], take part in running them, and wait for stragglers.
   Batches are serialized on [current]. *)
let run_batch t tasks =
  let n = Array.length tasks in
  if n > 0 then begin
    Mutex.lock t.m;
    if t.stop then begin
      Mutex.unlock t.m;
      invalid_arg "Simcore.Pool: pool is shut down"
    end;
    while t.current <> None do
      Condition.wait t.batch_done t.m
    done;
    let b =
      {
        seq = t.batch_seq;
        posted_s = (if t.trace then Clock.monotonic_s () else 0.0);
        tasks;
        next = Atomic.make 0;
        completed = 0;
      }
    in
    t.batch_seq <- t.batch_seq + 1;
    t.current <- Some b;
    Condition.broadcast t.work_available;
    Mutex.unlock t.m;
    drain t ~who:0 b;
    Mutex.lock t.m;
    while b.completed < n do
      Condition.wait t.batch_done t.m
    done;
    t.current <- None;
    (* wake any submitter queued behind this batch *)
    Condition.broadcast t.batch_done;
    Mutex.unlock t.m
  end

let map t ~f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  let results = Array.make n None in
  let errors = Array.make n None in
  let tasks =
    Array.init n (fun i () ->
        match f items.(i) with
        | v -> results.(i) <- Some v
        | exception e -> errors.(i) <- Some (e, Printexc.get_raw_backtrace ()))
  in
  run_batch t tasks;
  Array.iter
    (function
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ())
    errors;
  List.init n (fun i ->
      match results.(i) with
      | Some v -> v
      | None -> assert false (* no error above => every slot filled *))

let iter t ~f xs = ignore (map t ~f xs : unit list)

let shutdown t =
  Mutex.lock t.m;
  let first = not t.joined in
  t.joined <- true;
  t.stop <- true;
  Condition.broadcast t.work_available;
  Mutex.unlock t.m;
  if first then Array.iter Domain.join t.workers
