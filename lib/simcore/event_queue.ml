type 'a entry = { time : float; seq : int; payload : 'a }

type 'a t = { heap : 'a entry Heap.t; mutable next_seq : int }

let compare_entry a b =
  let c = Float.compare a.time b.time in
  if c <> 0 then c else Int.compare a.seq b.seq

let create () = { heap = Heap.create ~cmp:compare_entry; next_seq = 0 }

let schedule q ~time payload =
  Heap.push q.heap { time; seq = q.next_seq; payload };
  q.next_seq <- q.next_seq + 1

let next_time q =
  if Heap.is_empty q.heap then infinity else (Heap.peek_exn q.heap).time

let pop q = Option.map (fun e -> (e.time, e.payload)) (Heap.pop q.heap)
let is_empty q = Heap.is_empty q.heap
let length q = Heap.length q.heap
