type key =
  | Submit_order
  | Keyed of
      (now:float -> r_star:(Workload.Job.t -> float) -> Workload.Job.t -> float)

type t = { name : string; key : key }

let fcfs = { name = "fcfs"; key = Submit_order }
let sjf = { name = "sjf"; key = Keyed (fun ~now:_ ~r_star j -> -.r_star j) }

(* Typed compares in place of [Float.max], whose [-0.0] test calls the
   out-of-line [caml_signbit]: they give the same bits for every
   operand but NaN, and a job's runtimes are finite ([Job.v]). *)
let[@inline] waited ~now (j : Workload.Job.t) =
  let w = now -. j.submit in
  if w > 0.0 then w else 0.0

let expansion_factor ~now ~r_star (j : Workload.Job.t) =
  let r = r_star j in
  let runtime = if r > Simcore.Units.minute then r else Simcore.Units.minute in
  1.0 +. (waited ~now j /. runtime)

let lxf = { name = "lxf"; key = Keyed expansion_factor }

let lxf_w =
  {
    name = "lxf&w(0.01)";
    key =
      Keyed
        (fun ~now ~r_star j ->
          let wait_hours = Simcore.Units.to_hours (waited ~now j) in
          expansion_factor ~now ~r_star j +. (0.01 *. wait_hours));
  }

(* Whether [prev] goes before [j] in submit order.  Plain float
   comparisons, not [Job.compare_submit]: they are cheaper on this
   per-decision path, and a NaN makes them fail, so at worst an ordered
   queue gets sorted by the total order below. *)
let submit_before (prev : Workload.Job.t) (j : Workload.Job.t) =
  prev.submit < j.submit || (prev.submit = j.submit && prev.id <= j.id)

let rec submit_ordered prev = function
  | [] -> true
  | j :: rest -> submit_before prev j && submit_ordered j rest

(* Whether [jobs], preceded by [prev] with key [kprev], is already in
   order.  Computes each key once and allocates nothing beyond the
   keys' boxes.  [kprev] is typed [float] so that the key compares are
   float compares, not calls to the polymorphic [caml_lessthan] and
   [caml_equal]. *)
let rec in_order key ~now ~r_star prev (kprev : float) = function
  | [] -> true
  | j :: rest ->
      let k = key ~now ~r_star j in
      (k < kprev || (k = kprev && submit_before prev j))
      && in_order key ~now ~r_star j k rest

(* Job [a] precedes job [b]: higher key first, equal keys in submit
   order.  The [float array] annotation keeps the key reads unboxed; a
   polymorphic array here would box every read and compare
   polymorphically. *)
let precedes (keys : float array) (jobs : Workload.Job.t array) a b =
  let c = Float.compare keys.(b) keys.(a) in
  c < 0 || (c = 0 && Workload.Job.compare_submit jobs.(a) jobs.(b) < 0)

(* One bottom-up merge pass: merge the sorted runs of [width] indices
   in [src] pairwise into [dst]. *)
let merge_pass keys jobs (src : int array) (dst : int array) width =
  let n = Array.length src in
  let lo = ref 0 in
  while !lo < n do
    let mid = Int.min (!lo + width) n and hi = Int.min (!lo + (2 * width)) n in
    let i = ref !lo and j = ref mid in
    for k = !lo to hi - 1 do
      if !i < mid && (!j >= hi || not (precedes keys jobs src.(!j) src.(!i)))
      then begin
        dst.(k) <- src.(!i);
        incr i
      end
      else begin
        dst.(k) <- src.(!j);
        incr j
      end
    done;
    lo := hi
  done

let rec merge_sort keys jobs src dst width =
  if width >= Array.length src then src
  else begin
    merge_pass keys jobs src dst width;
    merge_sort keys jobs dst src (2 * width)
  end

let rec collect jobs (perm : int array) i acc =
  if i < 0 then acc else collect jobs perm (i - 1) (jobs.(perm.(i)) :: acc)

(* The queue sorted by its keys; under [Submit_order] every key is the
   same, so the sort is by submission alone. *)
let sorted p ~now ~r_star waiting =
  let jobs = Array.of_list waiting in
  let n = Array.length jobs in
  let keys : float array = Array.make n 0.0 in
  (match p.key with
  | Submit_order -> ()
  | Keyed key ->
      for i = 0 to n - 1 do
        keys.(i) <- key ~now ~r_star jobs.(i)
      done);
  let perm = merge_sort keys jobs (Array.init n Fun.id) (Array.make n 0) 1 in
  collect jobs perm (n - 1) []

let order p ~now ~r_star waiting =
  match (p.key, waiting) with
  | _, [] -> waiting
  | Submit_order, first :: rest when submit_ordered first rest -> waiting
  | Keyed key, first :: rest
    when in_order key ~now ~r_star first (key ~now ~r_star first) rest ->
      waiting
  | _ -> sorted p ~now ~r_star waiting
