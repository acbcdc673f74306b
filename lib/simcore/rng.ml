(* The state lives in an 8-byte buffer, not a mutable [int64] field, so
   advancing it stores the new value in place of boxing it. *)
type t = Bytes.t

(* splitmix64: Steele, Lea & Flood, "Fast splittable pseudorandom number
   generators", OOPSLA 2014.  Chosen for trivial state, good statistical
   quality at this scale, and cheap splitting. *)

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state state =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 state;
  t

let create ~seed = of_state (mix (Int64.of_int seed))

let bits64 t =
  let state = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 state;
  mix state

let split t = of_state (mix (bits64 t))

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling over the low 62 bits to avoid modulo bias. *)
  let mask = 0x3FFF_FFFF_FFFF_FFFFL in
  let rec draw () =
    let bits = Int64.to_int (Int64.logand (bits64 t) mask) in
    let value = bits mod n in
    if bits - value + (n - 1) >= 0 then value else draw ()
  in
  draw ()

let unit_float t =
  (* 53 random bits scaled into [0, 1). *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. 0x1p-53

let float t x = unit_float t *. x
