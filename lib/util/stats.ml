(* An empty series has no mean; returning 0.0 here used to render as a
   plausible table cell.  Callers with legitimately-empty series use
   [mean_opt] and print "n/a". *)
let mean = function
  | [] -> invalid_arg "Stats.mean: empty list"
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let mean_opt = function [] -> None | xs -> Some (mean xs)

(* The nearest rank ceil(p/100 * n), in integer arithmetic: the old
   float path (ceil (p /. 100. *. float n)) went through the unrepresentable
   p/100, so e.g. p=70, n=10 evaluated 0.7 *. 10. = 7.000000000000001 and
   ceiled to rank 8 — the p70 of 10 samples returned the 8th element.
   p is taken at milli-percent resolution (exact for any humanly written
   percentile: 70., 99.9, 12.345), and the result is clamped to [1, n]. *)
let nearest_rank ~p ~n =
  if Float.is_nan p || p < 0.0 || p > 100.0 then
    invalid_arg "Stats.nearest_rank: p outside [0,100]";
  if n < 1 then invalid_arg "Stats.nearest_rank: empty sample";
  let pm = int_of_float (Float.round (p *. 1000.0)) in
  let rank = ((pm * n) + 99_999) / 100_000 in
  if rank < 1 then 1 else if rank > n then n else rank

(* Nearest-rank percentile: the smallest element with at least p% of the
   sample at or below it.  Exact (no interpolation), monotone in p, and
   p = 0 / p = 100 hit the minimum / maximum. *)
let percentile xs ~p =
  if xs = [] then invalid_arg "Stats.percentile: empty list";
  if Float.is_nan p || p < 0.0 || p > 100.0 then
    invalid_arg "Stats.percentile: p outside [0,100]";
  let sorted = List.sort compare xs in
  let n = List.length sorted in
  List.nth sorted (nearest_rank ~p ~n - 1)

let ratio_pct ~num ~den =
  if den = 0 then invalid_arg "Stats.ratio_pct: zero denominator";
  float_of_int num /. float_of_int den *. 100.0
