module Metrics = Pv_util.Metrics

type t = {
  mutable buf : float array;
  mutable n : int;
  mutable work : float array option;
      (* memoized copy of the samples that selections reorder in place;
         invalidated by observe *)
}

let create () = { buf = Array.make 64 0.0; n = 0; work = None }

let observe t x =
  (* Selection needs a total order: NaN has none, and a sojourn is never
     negative. *)
  if Float.is_nan x || x < 0.0 then
    invalid_arg "Latency.observe: sojourn must be non-negative";
  if t.n = Array.length t.buf then begin
    let bigger = Array.make (2 * t.n) 0.0 in
    Array.blit t.buf 0 bigger 0 t.n;
    t.buf <- bigger
  end;
  t.buf.(t.n) <- x;
  t.n <- t.n + 1;
  t.work <- None

let count t = t.n

let samples t = Array.sub t.buf 0 t.n

let mean t =
  if t.n = 0 then 0.0
  else begin
    let s = ref 0.0 in
    for i = 0 to t.n - 1 do
      s := !s +. t.buf.(i)
    done;
    !s /. float_of_int t.n
  end

let max_value t =
  if t.n = 0 then invalid_arg "Latency.max_value: no samples";
  let m = ref t.buf.(0) in
  for i = 1 to t.n - 1 do
    if t.buf.(i) > !m then m := t.buf.(i)
  done;
  !m

let work t =
  match t.work with
  | Some a -> a
  | None ->
    let a = samples t in
    t.work <- Some a;
    a

(* Hoare's FIND (Wirth's formulation): returns the k-th smallest element
   (0-based) of [a], leaving it at index k with nothing larger before it and
   nothing smaller after it.  Expected O(n); the reordering keeps the
   multiset, so later selections on the same array stay exact. *)
let select (a : float array) k =
  let lo = ref 0 and hi = ref (Array.length a - 1) in
  while !lo < !hi do
    let pivot = a.(k) in
    let i = ref !lo and j = ref !hi in
    while !i <= !j do
      while a.(!i) < pivot do incr i done;
      while pivot < a.(!j) do decr j done;
      if !i <= !j then begin
        let tmp = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- tmp;
        incr i;
        decr j
      end
    done;
    if !j < k then lo := !i;
    if k < !i then hi := !j
  done;
  a.(k)

(* Same nearest-rank definition as Stats.percentile (shared integer rank
   computation), by selection on the memoized working copy instead of a
   full sort: the four tail quantiles of a cell cost four linear passes. *)
let percentile t ~p =
  if t.n = 0 then invalid_arg "Latency.percentile: no samples";
  if Float.is_nan p || p < 0.0 || p > 100.0 then
    invalid_arg "Latency.percentile: p outside [0,100]";
  select (work t) (Pv_util.Stats.nearest_rank ~p ~n:t.n - 1)

let percentile_opt t ~p = if t.n = 0 then None else Some (percentile t ~p)

let observe_metrics reg ~prefix t =
  let h = Metrics.hist reg prefix in
  for i = 0 to t.n - 1 do
    Metrics.hist_observe h (int_of_float (Float.round t.buf.(i)))
  done;
  Metrics.set_int reg (prefix ^ ".count") t.n
