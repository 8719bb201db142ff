module Metrics = Pv_util.Metrics

type t = {
  samples : float array;  (* samples.(0 .. n-1); selections reorder them *)
  n : int;
  mutable found : int list;  (* ranks already selected, each at its sorted index *)
}

let of_samples a ~count =
  if count < 0 || count > Array.length a then
    invalid_arg "Latency.of_samples: count outside the array";
  for i = 0 to count - 1 do
    (* Selection needs a total order: NaN has none, and a sojourn is never
       negative. *)
    let x = a.(i) in
    if Float.is_nan x || x < 0.0 then
      invalid_arg "Latency.of_samples: sojourn must be non-negative"
  done;
  { samples = a; n = count; found = [] }

(* Hoare's FIND (Wirth's formulation) on a.(lo .. hi): returns the k-th
   smallest element (0-based, lo <= k <= hi) of the whole sample when that
   slice holds exactly its ranks lo .. hi, leaving it at index k with
   nothing larger before it and nothing smaller after it.  Expected
   O(hi - lo); outside the slice nothing moves. *)
let select (a : float array) ~lo ~hi k =
  let lo = ref lo and hi = ref hi in
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
   computation), by selection instead of a full sort.  A rank already
   found sits at its sorted index, so the indices between the two found
   ranks nearest k hold exactly the ranks between them: the selection
   searches only there.  The four tail quantiles of a point, asked in
   ascending order, scan n, n/2, n/20 and n/100 samples. *)
let percentile t ~p =
  if t.n = 0 then invalid_arg "Latency.percentile: no samples";
  if Float.is_nan p || p < 0.0 || p > 100.0 then
    invalid_arg "Latency.percentile: p outside [0,100]";
  let k = Pv_util.Stats.nearest_rank ~p ~n:t.n - 1 in
  if List.mem k t.found then t.samples.(k)
  else begin
    let lo = List.fold_left (fun lo r -> if r < k then Int.max lo (r + 1) else lo) 0 t.found in
    let hi =
      List.fold_left (fun hi r -> if r > k then Int.min hi (r - 1) else hi) (t.n - 1) t.found
    in
    t.found <- k :: t.found;
    select t.samples ~lo ~hi k
  end

let percentile_opt t ~p = if t.n = 0 then None else Some (percentile t ~p)

let observe_metrics reg ~prefix t =
  let h = Metrics.hist reg prefix in
  for i = 0 to t.n - 1 do
    Metrics.hist_observe h (int_of_float (Float.round t.samples.(i)))
  done;
  Metrics.set_int reg (prefix ^ ".count") t.n
