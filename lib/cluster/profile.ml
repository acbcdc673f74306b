type t = {
  capacity : int;
  mutable times : float array;
  mutable free : int array;
  mutable len : int;
  (* Reverse-delta trail: every structural mutation performed while
     [trailing] is on appends one inverse record, so [undo_to] can roll
     the profile back in O(mutations) instead of restoring an
     O(segments) snapshot.  Parallel arrays keep the records unboxed;
     [t_op] packs [(index lsl 2) lor opcode]. *)
  mutable trailing : bool;
  mutable t_op : int array;
  mutable t_time : float array;
  mutable t_free : int array;
  mutable t_len : int;
  (* Scratch cells for the placement scan ([scratch.(0)] = staged
     duration, [scratch.(1)] = window finish, [scratch.(2)] = resulting
     start) plus the stop segment of the last successful scan.  They
     let the scan run as top-level recursive functions over int
     arguments only and let callers pass the duration / read the start
     through tiny always-inlined accessors — a local [let rec]
     capturing floats costs a closure allocation per call in
     non-flambda builds, and float arguments and results of
     out-of-line calls are boxed. *)
  scratch : float array;
  mutable scan_stop : int;
}

type mark = int

let segment_count t = t.len

(* A fully-free profile with room for [room] segments before its
   buffers first grow. *)
let make ~now ~capacity ~room =
  if capacity < 1 then invalid_arg "Profile.create: capacity < 1";
  {
    capacity;
    times = Array.make room now;
    free = Array.make room capacity;
    len = 1;
    trailing = false;
    t_op = [||];
    t_time = [||];
    t_free = [||];
    t_len = 0;
    scratch = [| 0.0; 0.0; 0.0 |];
    scan_stop = 0;
  }

let create ~now ~capacity = make ~now ~capacity ~room:16

let ensure_capacity t needed =
  let cap = Array.length t.times in
  if needed > cap then begin
    let cap' = max needed (cap * 2) in
    let times' = Array.make cap' 0.0 in
    let free' = Array.make cap' 0 in
    Array.blit t.times 0 times' 0 t.len;
    Array.blit t.free 0 free' 0 t.len;
    t.times <- times';
    t.free <- free'
  end

(* --- trail ----------------------------------------------------------- *)

let op_insert = 0
let op_delete = 1
let op_range_sub = 2

(* Claim the next trail slot and return its index; the caller fills the
   parallel arrays directly (array-to-array stores keep floats
   unboxed).  Growth is off the hot path: once sized for the deepest
   search seen, claims never allocate again. *)
let trail_slot t =
  let cap = Array.length t.t_op in
  if t.t_len >= cap then begin
    let cap' = max 64 (cap * 2) in
    let op' = Array.make cap' 0 in
    let time' = Array.make cap' 0.0 in
    let free' = Array.make cap' 0 in
    Array.blit t.t_op 0 op' 0 t.t_len;
    Array.blit t.t_time 0 time' 0 t.t_len;
    Array.blit t.t_free 0 free' 0 t.t_len;
    t.t_op <- op';
    t.t_time <- time';
    t.t_free <- free'
  end;
  let pos = t.t_len in
  t.t_len <- pos + 1;
  pos

let mark t =
  t.trailing <- true;
  t.t_len

let trail_length t = t.t_len

(* --- primitive mutations (trail-recorded) ---------------------------- *)

(* Shifts of at most [loop_shift] slots move element by element in
   OCaml; longer ones keep [Array.blit].  A placement shifts a handful
   of slots on average, and each [Array.blit] is a C call, which under
   OCaml 5 costs a switch off the OCaml stack; past the crossover the
   blit's memmove wins. *)
let loop_shift = 16

(* Shift segments [idx, len) one slot right, opening a gap at [idx];
   the caller has ensured room for [len + 1] segments. *)
let open_gap t idx =
  if t.len - idx > loop_shift then begin
    Array.blit t.times idx t.times (idx + 1) (t.len - idx);
    Array.blit t.free idx t.free (idx + 1) (t.len - idx)
  end
  else
    for k = t.len downto idx + 1 do
      t.times.(k) <- t.times.(k - 1);
      t.free.(k) <- t.free.(k - 1)
    done

(* Insert a segment boundary at position [idx]. *)
let insert_raw t idx time free =
  ensure_capacity t (t.len + 1);
  open_gap t idx;
  t.times.(idx) <- time;
  t.free.(idx) <- free;
  t.len <- t.len + 1

let insert t idx time free =
  insert_raw t idx time free;
  if t.trailing then begin
    let pos = trail_slot t in
    t.t_op.(pos) <- (idx lsl 2) lor op_insert
  end

(* Remove the segment boundary at position [idx], shifting segments
   [idx + 1, len) one slot left. *)
let delete_raw t idx =
  if t.len - idx - 1 > loop_shift then begin
    Array.blit t.times (idx + 1) t.times idx (t.len - idx - 1);
    Array.blit t.free (idx + 1) t.free idx (t.len - idx - 1)
  end
  else
    for k = idx to t.len - 2 do
      t.times.(k) <- t.times.(k + 1);
      t.free.(k) <- t.free.(k + 1)
    done;
  t.len <- t.len - 1

let delete t idx =
  if t.trailing then begin
    let pos = trail_slot t in
    t.t_op.(pos) <- (idx lsl 2) lor op_delete;
    t.t_time.(pos) <- t.times.(idx);
    t.t_free.(pos) <- t.free.(idx)
  end;
  delete_raw t idx

(* Subtract [nodes] from segments [lo, hi); one trail record for the
   whole run.  Bounds are established by the caller, so the loop uses
   unchecked accesses (this is the single hottest loop of the tree
   search). *)
let range_subtract t lo hi nodes =
  if t.trailing then begin
    let pos = trail_slot t in
    t.t_op.(pos) <- (lo lsl 2) lor op_range_sub;
    t.t_time.(pos) <- float_of_int nodes;
    t.t_free.(pos) <- hi
  end;
  for k = lo to hi - 1 do
    Array.unsafe_set t.free k (Array.unsafe_get t.free k - nodes)
  done

let undo_to t m =
  if m < 0 || m > t.t_len then
    invalid_arg "Profile.undo_to: mark not on the current trail";
  for k = t.t_len - 1 downto m do
    let packed = t.t_op.(k) in
    let idx = packed lsr 2 in
    let op = packed land 3 in
    if op = op_range_sub then begin
      let nodes = int_of_float t.t_time.(k) in
      let hi = t.t_free.(k) in
      for j = idx to hi - 1 do
        Array.unsafe_set t.free j (Array.unsafe_get t.free j + nodes)
      done
    end
    else if op = op_insert then delete_raw t idx
    else begin
      (* [insert_raw] inlined so the boundary time moves float-array to
         float-array without crossing a function boundary (which would
         box it — this loop runs once per backtracked node) *)
      ensure_capacity t (t.len + 1);
      open_gap t idx;
      t.times.(idx) <- t.t_time.(k);
      t.free.(idx) <- t.t_free.(k);
      t.len <- t.len + 1
    end
  done;
  t.t_len <- m

(* The one segment builder.  Each end is raised to [not_before] by an
   explicit comparison rather than [Float.max], whose out-of-line call
   would box its result once per release.  Raising to a floor is
   monotone, so the raised ends stay ascending and the releases at or
   before [now] (which free their nodes already) form a prefix.  The
   segments come out normalized: every later end is after [now], a
   release of equal end joins the last segment, and any other release
   frees at least one node, so free counts strictly grow from segment
   to segment. *)
let of_sorted_releases ~now ~capacity ~not_before ends nodes n =
  let first = ref 0 in
  while !first < n && ends.(!first) <= now && not_before <= now do
    incr first
  done;
  let busy = ref 0 in
  for k = !first to n - 1 do
    if nodes.(k) < 1 then
      invalid_arg "Profile.of_running: a release of fewer than one node";
    busy := !busy + nodes.(k)
  done;
  if !busy > capacity then
    invalid_arg "Profile.of_running: running jobs exceed capacity";
  let t = make ~now ~capacity ~room:(max 16 (n - !first + 8)) in
  (* Build segments left to right: free grows at each release. *)
  let current = ref (capacity - !busy) in
  t.free.(0) <- !current;
  for k = !first to n - 1 do
    let e = if ends.(k) >= not_before then ends.(k) else not_before in
    current := !current + nodes.(k);
    if t.times.(t.len - 1) = e then t.free.(t.len - 1) <- !current
    else begin
      t.times.(t.len) <- e;
      t.free.(t.len) <- !current;
      t.len <- t.len + 1
    end
  done;
  t

let of_running ~now ~capacity releases =
  let sorted = Array.of_list releases in
  Array.stable_sort (fun (a, _) (b, _) -> Float.compare a b) sorted;
  of_sorted_releases ~now ~capacity ~not_before:neg_infinity
    (Array.map fst sorted) (Array.map snd sorted) (Array.length sorted)

let segments t =
  List.init t.len (fun i -> (t.times.(i), t.free.(i)))

(* Index of the segment containing [time]: a top-level binary search,
   so locating allocates no closure.
   Invariant: times.(lo) <= time and (hi = len or times.(hi) > time). *)
let rec search t time lo hi =
  if hi - lo <= 1 then lo
  else
    let mid = (lo + hi) / 2 in
    if t.times.(mid) <= time then search t time mid hi
    else search t time lo mid

let locate t time =
  if time < t.times.(0) then
    invalid_arg "Profile.locate: time before profile start";
  search t time 0 t.len

(* Carve [nodes] out of segments [i, stop) whose run has already been
   validated (every free count >= nodes), ensuring a boundary at the
   window finish first.  The finish time is read from [scratch.(1)]
   rather than passed as an argument (a float argument would be boxed
   on every call).  [stop] is the first segment index with
   [times.(stop) >= finish] (or [len]).  Returns nothing; merges the
   run's two borders locally — subtracting a constant from a
   contiguous run preserves inequality inside the run and outside it,
   so no other adjacent pair can newly share a free count. *)
let carve t ~i ~stop ~nodes =
  let finish = Array.unsafe_get t.scratch 1 in
  let stop =
    if stop >= t.len then begin
      (* reservation extends past the last boundary: split the final
         infinite segment at [finish] *)
      insert t t.len finish t.free.(t.len - 1);
      t.len - 1
    end
    else if t.times.(stop) > finish then begin
      insert t stop finish t.free.(stop - 1);
      stop
    end
    else stop
  in
  range_subtract t i stop nodes;
  (* merge the right border first so index [i] stays valid *)
  if stop < t.len && t.free.(stop) = t.free.(stop - 1) then delete t stop;
  if i > 0 && t.free.(i) = t.free.(i - 1) then delete t i

let reserve t ~at ~nodes ~duration =
  if duration <= 0.0 then invalid_arg "Profile.reserve: duration <= 0";
  let finish = at +. duration in
  let i = locate t at in
  let i =
    if t.times.(i) < at then begin
      insert t (i + 1) at t.free.(i);
      i + 1
    end
    else i
  in
  (* Validate the whole window before mutating the free counts, so an
     oversubscription attempt raises without corrupting the profile. *)
  let rec validate k =
    if k < t.len && t.times.(k) < finish then begin
      if t.free.(k) < nodes then
        invalid_arg "Profile.reserve: insufficient free nodes";
      validate (k + 1)
    end
    else k
  in
  if t.free.(i) < nodes then
    invalid_arg "Profile.reserve: insufficient free nodes";
  let stop = validate (i + 1) in
  Array.unsafe_set t.scratch 1 finish;
  carve t ~i ~stop ~nodes

(* Window scan for [place_earliest], lifted to top level so each call
   passes only ints and [t] (no closures, no boxed floats).  The
   window end lives in [t.scratch.(1)]; [scan_check] yields the stop
   segment (>= 0) or [-k - 1] for a block at [k]; [scan_from] returns
   the start segment and leaves its stop in [t.scan_stop].  The
   unchecked reads are safe because the final segment always has
   [capacity] free nodes, so a scan with [nodes <= capacity]
   terminates at or before it. *)
let rec scan_check t nodes k =
  if
    k >= t.len
    || Array.unsafe_get t.times k >= Array.unsafe_get t.scratch 1
  then k
  else if Array.unsafe_get t.free k >= nodes then scan_check t nodes (k + 1)
  else -k - 1

let rec scan_from t nodes i =
  if Array.unsafe_get t.free i < nodes then scan_from t nodes (i + 1)
  else begin
    Array.unsafe_set t.scratch 1
      (Array.unsafe_get t.times i +. Array.unsafe_get t.scratch 0);
    let r = scan_check t nodes (i + 1) in
    if r >= 0 then begin
      t.scan_stop <- r;
      i
    end
    else scan_from t nodes (-r)
  end

(* [now] arrives boxed and the result is an int, so the check costs a
   load and a float compare. *)
let free_now t ~now =
  if t.times.(0) <> now then
    invalid_arg "Profile.free_now: the profile does not begin at now";
  t.free.(0)

(* One pass from segment 0; a step of 0 free nodes is the last, since
   no later count can be lower. *)
let floor t times free =
  times.(0) <- t.times.(0);
  free.(0) <- t.free.(0);
  let steps = ref 1 in
  let k = ref 1 in
  while !k < t.len && free.(!steps - 1) > 0 do
    if t.free.(!k) < free.(!steps - 1) then begin
      times.(!steps) <- t.times.(!k);
      free.(!steps) <- t.free.(!k);
      incr steps
    end;
    incr k
  done;
  !steps

(* The staged accessors are one expression each so the compiler
   inlines them at cross-module call sites, letting the duration in
   and the start out without boxing. *)
let stage_duration t duration = Array.unsafe_set t.scratch 0 duration
let staged_start t = Array.unsafe_get t.scratch 2

let place_earliest_staged t ~nodes =
  if nodes > t.capacity then
    invalid_arg "Profile.place_earliest: job wider than machine";
  if Array.unsafe_get t.scratch 0 <= 0.0 then
    invalid_arg "Profile.place_earliest: duration must be positive";
  (* Earliest start and [reserve] in one: the feasibility scan already
     knows the start segment [i] and the extent [stop] of the window,
     so the reservation skips the binary search and — because every
     candidate start is a segment boundary — never splits at the start
     time.  One pass over the profile per job placement. *)
  let i = scan_from t nodes 0 in
  let s = t.times.(i) in
  (* [scan_from] left [scratch.(1)] holding the successful window's
     finish time, exactly what [carve] reads *)
  carve t ~i ~stop:t.scan_stop ~nodes;
  Array.unsafe_set t.scratch 2 s

let place_earliest t ~nodes ~duration =
  stage_duration t duration;
  place_earliest_staged t ~nodes;
  staged_start t

let copy t =
  {
    capacity = t.capacity;
    times = Array.sub t.times 0 t.len;
    free = Array.sub t.free 0 t.len;
    len = t.len;
    trailing = false;
    t_op = [||];
    t_time = [||];
    t_free = [||];
    t_len = 0;
    scratch = [| 0.0; 0.0; 0.0 |];
    scan_stop = 0;
  }

let invariant t =
  let ok = ref (t.len >= 1) in
  for i = 0 to t.len - 1 do
    if t.free.(i) < 0 || t.free.(i) > t.capacity then ok := false;
    if i > 0 && t.times.(i) <= t.times.(i - 1) then ok := false;
    if i > 0 && t.free.(i) = t.free.(i - 1) then ok := false
  done;
  !ok
