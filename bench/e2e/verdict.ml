(* The rule `e2e.exe compare` applies to one (metric, workload) pairing of
   a parent run and a change run:

   - unresolved: the parent's interquartile range is wider than the
     tolerance, unless every run of the change reads better than every run
     of the parent;
   - worse: the change's median is worse than the parent's by more than the
     tolerance (a regression);
   - better: the change wins at least nine tenths of the pairs run (ties
     count for neither) and the medians differ by more than the parent's
     interquartile range;
   - within bound: none of the above.

   The tolerance is the metric's bound times the parent's median, but never
   less than the metric's floor. *)

type t = Within | Worse | Better | Unresolved

let name = function
  | Within -> "within bound"
  | Worse -> "worse"
  | Better -> "better"
  | Unresolved -> "unresolved"

type judged = {
  verdict : t;
  change_pct : float;  (** median change, positive = worse *)
  spread : float;  (** the parent's spread *)
}

let judge ~(better : Registry.better) ~bound ?(floor = 0.0) ~parent ~change () =
  let beats a b = match better with Registry.Lower -> a < b | Registry.Higher -> a > b in
  let mp = Quant.median parent and mc = Quant.median change in
  let worse = match better with Registry.Lower -> mc -. mp | Registry.Higher -> mp -. mc in
  let tolerance = Float.max (bound *. Float.abs mp) floor in
  let all_better = List.for_all (fun c -> List.for_all (fun p -> beats c p) parent) change in
  let pairs =
    let rec zip a b = match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> [] in
    zip parent change
  in
  let wins = List.length (List.filter (fun (p, c) -> beats c p) pairs) in
  let q1, q3 = Quant.quartiles parent in
  let gain =
    pairs <> [] && 10 * wins >= 9 * List.length pairs && beats mc mp
    && Float.abs (mc -. mp) > q3 -. q1
  in
  let verdict =
    if q3 -. q1 > tolerance then if all_better then Better else Unresolved
    else if worse > tolerance then Worse
    else if gain then Better
    else Within
  in
  let change_pct = if worse = 0.0 then 0.0 else 100.0 *. worse /. Float.abs mp in
  { verdict; change_pct; spread = Quant.spread parent }
