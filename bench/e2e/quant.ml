(* Order statistics of repeated measurements.  Quartiles follow Python's
   [statistics.quantiles(values, n=4)] (the "exclusive" method), so a spread
   computed here matches one computed from the same values in Python. *)

let sorted values =
  let a = Array.of_list values in
  Array.sort compare a;
  a

let median values =
  let a = sorted values in
  let n = Array.length a in
  if n = 0 then invalid_arg "Quant.median: no values";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* (q1, q3). *)
let quartiles values =
  let a = sorted values in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Quant.quartiles: no values";
  if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

(* Interquartile range as a share of the median. *)
let spread values =
  let q1, q3 = quartiles values in
  let m = median values in
  if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m
