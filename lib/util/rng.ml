type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

let next_seed t =
  t.state <- Int64.add t.state golden_gamma;
  t.state

(* SplitMix64 finalizer. *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 t = mix (next_seed t)

let split t = { state = int64 t }

let bits t = Int64.to_int (Int64.shift_right_logical (int64 t) 2)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  bits t mod n

let in_range t lo hi =
  if hi < lo then invalid_arg "Rng.in_range: empty range";
  lo + int t (hi - lo + 1)

let float t x =
  let u = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  x *. (u /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (int64 t) 1L = 1L

let chance t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t 1.0 < p

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_exp t mean =
  let u = 1.0 -. float t 1.0 in
  -.mean *. log u

let sample_geometric t p =
  let p = if p < 1e-9 then 1e-9 else if p > 1.0 then 1.0 else p in
  if p >= 1.0 then 0
  else
    let u = 1.0 -. float t 1.0 in
    int_of_float (Float.floor (log u /. log (1.0 -. p)))

(* Prefix sums of the clamped weights, built with the same left-to-right
   additions a linear scan would make, so every cumulative value (and the
   total, the last one) is bit-identical to the scan's running sum. *)
type weighted = float array

let weighted ws =
  let n = Array.length ws in
  if n = 0 then invalid_arg "Rng.weighted: empty array";
  let cum = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    let w = ws.(i) in
    if not (Float.is_finite w) then invalid_arg "Rng.weighted: non-finite weight";
    acc := !acc +. Float.max w 0.0;
    cum.(i) <- !acc
  done;
  if !acc <= 0.0 then invalid_arg "Rng.weighted: non-positive total weight";
  if not (Float.is_finite !acc) then invalid_arg "Rng.weighted: total weight overflows";
  cum

(* The first i < n-1 with target < cum.(i), else n-1: exactly where the
   linear scan stops, found by bisection since cum is non-decreasing. *)
let pick t (cum : weighted) =
  let target = float t cum.(Array.length cum - 1) in
  let lo = ref 0 and hi = ref (Array.length cum - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if target < cum.(mid) then hi := mid else lo := mid + 1
  done;
  !lo
