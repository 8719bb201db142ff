(* Unit tests of the run-comparison rule and the benchmark's small
   parsers, on synthetic inputs. *)

open E2e_core

let failures = ref 0

let expect what cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL: %s\n" what
  end

let verdict ?(better = Registry.Lower) ?(bound = 0.10) ?floor parent change =
  (Verdict.judge ~better ~bound ?floor ~parent ~change ()).Verdict.verdict

(* Ten runs within 1% of [m]. *)
let around m =
  List.map
    (fun d -> m *. (1.0 +. d))
    [ -0.01; 0.0; 0.01; -0.005; 0.005; 0.002; -0.002; 0.0; 0.01; -0.01 ]

let () =
  let base = around 10.0 in
  expect "identical runs are within bound" (verdict base base = Verdict.Within);
  expect "a 5% slowdown under a 10% bound is within bound"
    (verdict base (around 10.5) = Verdict.Within);
  expect "a 20% slowdown is worse" (verdict base (around 12.0) = Verdict.Worse);
  expect "a 20% speedup winning every pair is better" (verdict base (around 8.0) = Verdict.Better);
  expect "a small speedup that wins every pair and clears the IQR is better"
    (verdict base (around 9.7) = Verdict.Better);
  expect "a speedup that wins too few pairs is within bound"
    (verdict base (List.mapi (fun i v -> if i < 3 then v *. 0.97 else v) base) = Verdict.Within);
  let noisy = [ 8.0; 12.0; 9.0; 11.0; 10.0; 7.5; 12.5; 10.0 ] in
  expect "spread wider than the bound is unresolved"
    (verdict noisy (around 10.0) = Verdict.Unresolved);
  expect "wide spread but every change run better is better"
    (verdict noisy (around 5.0) = Verdict.Better);
  expect "higher-is-better metric: a 20% drop is worse"
    (verdict ~better:Registry.Higher base (around 8.0) = Verdict.Worse);
  expect "higher-is-better metric: a 20% rise is better"
    (verdict ~better:Registry.Higher base (around 12.0) = Verdict.Better);
  expect "all-zero counts on both sides are within bound"
    (verdict ~bound:0.0 [ 0.0; 0.0; 0.0 ] [ 0.0; 0.0; 0.0 ] = Verdict.Within);
  expect "a count rising from zero is worse"
    (verdict ~bound:0.0 [ 0.0; 0.0; 0.0 ] [ 0.0; 1.0; 1.0 ] = Verdict.Worse);
  let jitter = [ 0.0016; 0.0021; 0.0015; 0.0019; 0.0017 ] in
  expect "millisecond jitter under a 20 ms floor is within bound"
    (verdict ~bound:0.25 ~floor:0.02 jitter (List.map (fun v -> v *. 1.3) jitter)
    = Verdict.Within);
  expect "the same jitter without a floor is unresolved"
    (verdict ~bound:0.25 jitter jitter = Verdict.Unresolved);
  expect "a worsening past the floor is worse"
    (verdict ~bound:0.25 ~floor:0.02 jitter (List.map (fun v -> v +. 0.03) jitter)
    = Verdict.Worse);
  let j = Verdict.judge ~better:Registry.Lower ~bound:0.1 ~parent:base ~change:(around 11.0) () in
  expect "change_pct is the median change in percent, positive = worse"
    (Float.abs (j.Verdict.change_pct -. 10.0) < 1e-6);
  (* Quartiles match Python's statistics.quantiles(values, n=4). *)
  let q1, q3 = Quant.quartiles [ 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0; 8.0; 9.0; 10.0 ] in
  expect "quartiles of 1..10 are 2.75 and 8.25" (q1 = 2.75 && q3 = 8.25);
  let q1, q3 = Quant.quartiles [ 3.0; 1.0; 2.0 ] in
  expect "quartiles of 1..3 are 1 and 3" (q1 = 1.0 && q3 = 3.0);
  expect "median of an even sample averages the middle pair"
    (Quant.median [ 4.0; 1.0; 3.0; 2.0 ] = 2.5);
  (* JSON round trip. *)
  let doc =
    Json.Obj
      [
        ("a", Json.Arr [ Json.Num 1.5; Json.Num 0.1; Json.Num 12345678.0; Json.Null ]);
        ("b\"q", Json.Obj [ ("t", Json.Bool true); ("s", Json.Str "x\ny\\") ]);
      ]
  in
  expect "JSON printing and parsing round-trip" (Json.parse (Json.to_string doc) = doc);
  expect "JSON rejects trailing bytes"
    (match Json.parse "{} x" with exception Json.Parse_error _ -> true | _ -> false);
  if !failures > 0 then exit 1;
  print_endline "test_e2e: ok"
