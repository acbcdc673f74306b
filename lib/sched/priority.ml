type t = {
  name : string;
  key :
    now:float -> r_star:(Workload.Job.t -> float) -> Workload.Job.t -> float;
}

let compare p ~now ~r_star a b =
  let c = Float.compare (p.key ~now ~r_star b) (p.key ~now ~r_star a) in
  if c <> 0 then c else Workload.Job.compare_submit a b

let fcfs = { name = "fcfs"; key = (fun ~now:_ ~r_star:_ _ -> 0.0) }
let sjf = { name = "sjf"; key = (fun ~now:_ ~r_star j -> -.r_star j) }

let expansion_factor ~now ~r_star (j : Workload.Job.t) =
  let wait = Float.max 0.0 (now -. j.submit) in
  let runtime = Float.max (r_star j) Simcore.Units.minute in
  1.0 +. (wait /. runtime)

let lxf = { name = "lxf"; key = expansion_factor }

let lxf_w ~weight_per_hour =
  {
    name = Printf.sprintf "lxf&w(%.3g)" weight_per_hour;
    key =
      (fun ~now ~r_star j ->
        let wait_hours =
          Simcore.Units.to_hours (Float.max 0.0 (now -. j.Workload.Job.submit))
        in
        expansion_factor ~now ~r_star j +. (weight_per_hour *. wait_hours));
  }

(* Whether [jobs], preceded by [prev] with key [kprev], is already in
   order.  Computes each key once and allocates nothing beyond the
   keys' boxes (none for a constant key such as [fcfs]'s).  Plain float
   comparisons, not [Float.compare] and [Job.compare_submit]: they are
   cheaper on this per-decision path, and a NaN makes them fail, so at
   worst an ordered queue gets sorted by the total order below. *)
let rec in_order p ~now ~r_star (prev : Workload.Job.t) kprev = function
  | [] -> true
  | (j : Workload.Job.t) :: rest ->
      let k = p.key ~now ~r_star j in
      (k < kprev
      || k = kprev
         && (prev.submit < j.submit
            || (prev.submit = j.submit && prev.id <= j.id)))
      && in_order p ~now ~r_star j k rest

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

let order p ~now ~r_star waiting =
  match waiting with
  | [] -> waiting
  | first :: rest when in_order p ~now ~r_star first (p.key ~now ~r_star first) rest
    ->
      waiting
  | _ ->
      let jobs = Array.of_list waiting in
      let n = Array.length jobs in
      let keys : float array = Array.make n 0.0 in
      for i = 0 to n - 1 do
        keys.(i) <- p.key ~now ~r_star jobs.(i)
      done;
      let perm =
        merge_sort keys jobs (Array.init n Fun.id) (Array.make n 0) 1
      in
      collect jobs perm (n - 1) []
