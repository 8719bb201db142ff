(* An empty series has no mean; returning 0.0 here used to render as a
   plausible table cell (same silent-poisoning family as the geomean and
   zero-baseline guards).  Callers with legitimately-empty series use
   [mean_opt] and print "n/a". *)
let mean = function
  | [] -> invalid_arg "Stats.mean: empty list"
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let mean_opt = function [] -> None | xs -> Some (mean xs)

let geomean = function
  | [] -> 0.0
  | xs ->
    (* log of a non-positive silently yields nan/-inf and poisons the whole
       mean; refuse loudly instead, like the zero-baseline normalizers.
       [not (x > 0.)] also catches NaN inputs. *)
    if List.exists (fun x -> not (x > 0.0)) xs then
      invalid_arg "Stats.geomean: non-positive input";
    let n = float_of_int (List.length xs) in
    exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. n)

let stddev xs =
  match xs with
  | [] -> invalid_arg "Stats.stddev: empty list"
  | [ _ ] -> 0.0
  | _ ->
    let m = mean xs in
    let var = mean (List.map (fun x -> (x -. m) ** 2.0) xs) in
    sqrt var

let min_max = function
  | [] -> invalid_arg "Stats.min_max: empty list"
  | x :: xs ->
    List.fold_left (fun (lo, hi) v -> (Float.min lo v, Float.max hi v)) (x, x) xs

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

(* A zero baseline used to propagate silent nan/inf into the tables; both
   normalizers now refuse it loudly instead. *)
let percent_overhead ~baseline v =
  if baseline = 0.0 then invalid_arg "Stats.percent_overhead: zero baseline";
  (v -. baseline) /. baseline *. 100.0

let normalized ~baseline v =
  if baseline = 0.0 then invalid_arg "Stats.normalized: zero baseline";
  v /. baseline

let ratio_pct ~num ~den =
  if den = 0 then invalid_arg "Stats.ratio_pct: zero denominator";
  float_of_int num /. float_of_int den *. 100.0

type counter = {
  mutable n : int;
  mutable sum : float;
  mutable sum_sq : float;
  mutable min_v : float;
  mutable max_v : float;
}

let counter () = { n = 0; sum = 0.0; sum_sq = 0.0; min_v = infinity; max_v = neg_infinity }

let add c x =
  c.n <- c.n + 1;
  c.sum <- c.sum +. x;
  c.sum_sq <- c.sum_sq +. (x *. x);
  if x < c.min_v then c.min_v <- x;
  if x > c.max_v then c.max_v <- x

let count c = c.n
let total c = c.sum
let counter_sum_sq c = c.sum_sq
let counter_mean c = if c.n = 0 then 0.0 else c.sum /. float_of_int c.n

let counter_min c =
  if c.n = 0 then invalid_arg "Stats.counter_min: empty counter";
  c.min_v

let counter_max c =
  if c.n = 0 then invalid_arg "Stats.counter_max: empty counter";
  c.max_v

(* Population stddev from the streaming moments; clamped at 0 so rounding
   in sum_sq - n*mean^2 can never produce a NaN. *)
let counter_stddev c =
  if c.n < 2 then 0.0
  else
    let m = counter_mean c in
    sqrt (Float.max 0.0 ((c.sum_sq /. float_of_int c.n) -. (m *. m)))
