(* Unit and property tests for Pv_util: deterministic RNG, statistics,
   bitsets and table rendering. *)

module Rng = Pv_util.Rng
module Stats = Pv_util.Stats
module Bitset = Pv_util.Bitset
module Tab = Pv_util.Tab
module Metrics = Pv_util.Metrics
module Fault = Pv_util.Fault

let check = Alcotest.check

let test_rng_determinism () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Rng.bits a) (Rng.bits b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits a = Rng.bits b then incr same
  done;
  Alcotest.(check bool) "streams diverge" true (!same < 4)

(* Known-answer tests against the published SplitMix64 reference outputs
   (Steele, Lea & Flood; also the Vigna reference implementation), given as
   full unsigned 64-bit words.  [Rng.bits] is the top 62 bits of each. *)
let kat seed expected () =
  let r = Rng.create seed in
  List.iter
    (fun want ->
      check Alcotest.int ("splitmix64 word " ^ want)
        (Int64.to_int (Int64.shift_right_logical (Int64.of_string ("0u" ^ want)) 2))
        (Rng.bits r))
    expected

let test_rng_kat_seed0 =
  kat 0 [ "16294208416658607535"; "7960286522194355700"; "487617019471545679" ]

let test_rng_kat_seed1234567 =
  kat 1234567
    [
      "6457827717110365317";
      "3203168211198807973";
      "9817491932198370423";
      "4593380528125082431";
      "16408922859458223821";
    ]

let test_rng_int_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done

let test_rng_in_range () =
  let r = Rng.create 8 in
  for _ = 1 to 1000 do
    let v = Rng.in_range r 5 9 in
    Alcotest.(check bool) "in [5,9]" true (v >= 5 && v <= 9)
  done

let test_rng_chance_extremes () =
  let r = Rng.create 3 in
  Alcotest.(check bool) "p=0 never" false (Rng.chance r 0.0);
  Alcotest.(check bool) "p=1 always" true (Rng.chance r 1.0)

let test_rng_chance_rate () =
  let r = Rng.create 4 in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.chance r 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. 10_000.0 in
  Alcotest.(check bool) "rate near 0.3" true (rate > 0.27 && rate < 0.33)

let test_rng_float_bounds () =
  let r = Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_weighted_pick_bias () =
  let r = Rng.create 21 in
  let sampler = Rng.weighted [| 9.0; 1.0 |] in
  let a = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.pick r sampler = 0 then incr a
  done;
  Alcotest.(check bool) "90/10 split approx" true (!a > 8_700 && !a < 9_300)

(* Reference sampler: re-fold the total, then scan linearly for the first
   index whose running sum exceeds one uniform draw of it.  [Rng.pick] must
   reproduce its index stream draw for draw. *)
let linear_pick r ws =
  let total = Array.fold_left (fun acc w -> acc +. Float.max w 0.0) 0.0 ws in
  let target = Rng.float r total in
  let rec go i acc =
    if i = Array.length ws - 1 then i
    else
      let acc = acc +. Float.max ws.(i) 0.0 in
      if target < acc then i else go (i + 1) acc
  in
  go 0 0.0

(* Weight arrays mixing zeros, negatives (clamped to zero) and positives of
   wildly different scales, up to large n, plus single-positive-entry
   arrays; every array has a positive total. *)
let weights_gen =
  let open QCheck.Gen in
  let weight =
    frequency
      [
        (3, return 0.0);
        (2, float_range (-5.0) 0.0);
        (4, float_range 0.0 10.0);
        (1, map (fun e -> Float.ldexp 1.0 e) (int_range (-40) 40));
      ]
  in
  let mixed =
    let* n = frequency [ (4, int_range 1 64); (1, int_range 1000 30_000) ] in
    let* ws = array_repeat n weight in
    let* i = int_bound (n - 1) in
    let* w = float_range 0.5 3.0 in
    ws.(i) <- w;
    return ws
  in
  let single =
    let* n = int_range 1 200 in
    let* i = int_bound (n - 1) in
    let* w = float_range 1e-6 1e6 in
    return (Array.init n (fun j -> if j = i then w else 0.0))
  in
  frequency [ (3, mixed); (1, single) ]

let pick_matches_linear_prop =
  QCheck.Test.make ~name:"weighted pick matches the linear scan draw for draw" ~count:200
    (QCheck.make
       ~print:(fun (seed, ws) -> Printf.sprintf "seed %d, %d weights" seed (Array.length ws))
       QCheck.Gen.(pair small_nat weights_gen))
    (fun (seed, ws) ->
      let sampler = Rng.weighted ws in
      let a = Rng.create seed and b = Rng.create seed in
      List.init 200 (fun _ -> Rng.pick a sampler) = List.init 200 (fun _ -> linear_pick b ws))

let test_weighted_rejects () =
  let reject name msg ws =
    Alcotest.check_raises name (Invalid_argument msg) (fun () -> ignore (Rng.weighted ws))
  in
  reject "empty" "Rng.weighted: empty array" [||];
  reject "all zero" "Rng.weighted: non-positive total weight" [| 0.0; -1.0 |];
  (* Regression: a NaN weight made the total NaN, which passed the
     non-positive guard, and every draw silently returned the last index. *)
  reject "nan" "Rng.weighted: non-finite weight" [| 1.0; Float.nan; 1.0 |];
  reject "infinity" "Rng.weighted: non-finite weight" [| 1.0; Float.infinity |];
  reject "overflow" "Rng.weighted: total weight overflows" [| Float.max_float; Float.max_float |]

let test_stats_mean () =
  check (Alcotest.float 1e-9) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  (* Regression: empty input used to return a silent 0.0, which flowed
     into tables as a fake measurement. *)
  Alcotest.check_raises "empty mean raises"
    (Invalid_argument "Stats.mean: empty list") (fun () ->
      ignore (Stats.mean []))

let test_stats_mean_opt () =
  (match Stats.mean_opt [] with
  | None -> ()
  | Some v -> Alcotest.failf "mean_opt [] = Some %f, expected None" v);
  match Stats.mean_opt [ 1.0; 3.0 ] with
  | Some v -> check (Alcotest.float 1e-9) "mean_opt" 2.0 v
  | None -> Alcotest.fail "mean_opt [1;3] = None"

let test_stats_ratio_pct () =
  check (Alcotest.float 1e-9) "half" 50.0 (Stats.ratio_pct ~num:1 ~den:2);
  check (Alcotest.float 1e-9) "zero num" 0.0 (Stats.ratio_pct ~num:0 ~den:7);
  Alcotest.check_raises "zero den"
    (Invalid_argument "Stats.ratio_pct: zero denominator") (fun () ->
      ignore (Stats.ratio_pct ~num:3 ~den:0))

let pos_floats = QCheck.(list_of_size Gen.(int_range 1 20) (float_range 0.001 1000.0))

let stats_mean_prop =
  QCheck.Test.make ~name:"mean of n copies is the value" ~count:200
    QCheck.(pair (float_range 0.5 100.0) (int_range 1 50))
    (fun (v, n) ->
      abs_float (Stats.mean (List.init n (fun _ -> v)) -. v) < 1e-9)

let test_percentile () =
  let xs = [ 15.0; 20.0; 35.0; 40.0; 50.0 ] in
  check (Alcotest.float 1e-9) "p5 is min" 15.0 (Stats.percentile xs ~p:5.0);
  check (Alcotest.float 1e-9) "p30" 20.0 (Stats.percentile xs ~p:30.0);
  check (Alcotest.float 1e-9) "p40" 20.0 (Stats.percentile xs ~p:40.0);
  check (Alcotest.float 1e-9) "p50" 35.0 (Stats.percentile xs ~p:50.0);
  check (Alcotest.float 1e-9) "p100 is max" 50.0 (Stats.percentile xs ~p:100.0);
  check (Alcotest.float 1e-9) "p0 is min" 15.0 (Stats.percentile xs ~p:0.0);
  check (Alcotest.float 1e-9) "singleton" 7.0 (Stats.percentile [ 7.0 ] ~p:99.0);
  check (Alcotest.float 1e-9) "unsorted input" 35.0
    (Stats.percentile [ 50.0; 15.0; 35.0; 40.0; 20.0 ] ~p:50.0)

let test_percentile_rejects () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty list")
    (fun () -> ignore (Stats.percentile [] ~p:50.0));
  Alcotest.check_raises "p > 100" (Invalid_argument "Stats.percentile: p outside [0,100]")
    (fun () -> ignore (Stats.percentile [ 1.0 ] ~p:100.5));
  Alcotest.check_raises "p < 0" (Invalid_argument "Stats.percentile: p outside [0,100]")
    (fun () -> ignore (Stats.percentile [ 1.0 ] ~p:(-1.0)))

(* Known-answer tests for the nearest rank, over samples [1.; 2.; ...; n.]
   where the value at rank r is simply [float r].  The p70/n=10 case is the
   bug this PR fixes: the float rank path evaluated 0.7 *. 10. as
   7.000000000000001 and ceiled to rank 8, returning 8.0 instead of 7.0. *)
let test_percentile_kats () =
  let one_to n = List.init n (fun i -> float_of_int (i + 1)) in
  let kat ~p ~n expected_rank =
    check Alcotest.int
      (Printf.sprintf "nearest_rank p%g n=%d" p n)
      expected_rank
      (Stats.nearest_rank ~p ~n);
    check (Alcotest.float 0.0)
      (Printf.sprintf "percentile p%g n=%d" p n)
      (float_of_int expected_rank)
      (Stats.percentile (one_to n) ~p)
  in
  (* n = 3: ceil of 0.75 / 1.5 / 2.1 / 2.7 / 2.97 *)
  kat ~p:25.0 ~n:3 1;
  kat ~p:50.0 ~n:3 2;
  kat ~p:70.0 ~n:3 3;
  kat ~p:90.0 ~n:3 3;
  kat ~p:99.0 ~n:3 3;
  (* n = 10: ceil of 2.5 / 5 / 7 / 9 / 9.9 — p70 is the regression case *)
  kat ~p:25.0 ~n:10 3;
  kat ~p:50.0 ~n:10 5;
  kat ~p:70.0 ~n:10 7;
  kat ~p:90.0 ~n:10 9;
  kat ~p:99.0 ~n:10 10;
  (* n = 100: every rank boundary is exact *)
  kat ~p:25.0 ~n:100 25;
  kat ~p:50.0 ~n:100 50;
  kat ~p:70.0 ~n:100 70;
  kat ~p:90.0 ~n:100 90;
  kat ~p:99.0 ~n:100 99;
  (* fractional percentile as used by the load sweep's p999 column *)
  check Alcotest.int "nearest_rank p99.9 n=1000" 999
    (Stats.nearest_rank ~p:99.9 ~n:1000);
  check Alcotest.int "nearest_rank p99.9 n=10" 10 (Stats.nearest_rank ~p:99.9 ~n:10)

(* The integer rank must agree with exact rational arithmetic
   ceil(p*n/100) for every integer percentile — precisely the cases the
   float path got wrong. *)
let nearest_rank_exact_prop =
  QCheck.Test.make ~name:"nearest_rank matches exact rational ceil for integer p"
    ~count:500
    QCheck.(pair (int_range 0 100) (int_range 1 2000))
    (fun (p, n) ->
      let exact = max 1 (((p * n) + 99) / 100) in
      Stats.nearest_rank ~p:(float_of_int p) ~n = exact)

let percentile_monotone_prop =
  QCheck.Test.make ~name:"percentile is monotone in p and hits min/max" ~count:300
    QCheck.(
      triple
        (list_of_size Gen.(int_range 1 40) (float_range (-50.0) 50.0))
        (float_range 0.0 100.0) (float_range 0.0 100.0))
    (fun (xs, p1, p2) ->
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      let lo_v = Stats.percentile xs ~p:lo and hi_v = Stats.percentile xs ~p:hi in
      let min_v = List.fold_left Float.min Float.infinity xs
      and max_v = List.fold_left Float.max Float.neg_infinity xs in
      lo_v <= hi_v
      && Stats.percentile xs ~p:0.0 = min_v
      && Stats.percentile xs ~p:100.0 = max_v
      && List.mem lo_v xs)

let test_bitset_basic () =
  let b = Bitset.create 100 in
  check Alcotest.int "empty" 0 (Bitset.count b);
  Bitset.set b 0;
  Bitset.set b 63;
  Bitset.set b 99;
  check Alcotest.int "three" 3 (Bitset.count b);
  Alcotest.(check bool) "mem 63" true (Bitset.mem b 63);
  Bitset.clear b 63;
  Alcotest.(check bool) "cleared" false (Bitset.mem b 63);
  check Alcotest.int "two" 2 (Bitset.count b)

let test_bitset_bounds () =
  let b = Bitset.create 10 in
  Alcotest.check_raises "oob set" (Invalid_argument "Bitset: index out of range")
    (fun () -> Bitset.set b 10)

let test_bitset_copy_isolated () =
  let a = Bitset.of_list 8 [ 1 ] in
  let b = Bitset.copy a in
  Bitset.set b 2;
  Alcotest.(check bool) "original untouched" false (Bitset.mem a 2)

let bitset_prop =
  QCheck.Test.make ~name:"bitset count matches elements"
    ~count:200
    QCheck.(small_list (int_bound 63))
    (fun l ->
      let b = Bitset.of_list 64 l in
      Bitset.count b = List.length (List.sort_uniq compare l))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_tab_render () =
  let t = Tab.create ~title:"T" ~header:[ ("a", Tab.Left); ("b", Tab.Right) ] in
  Tab.row t [ "x"; "1" ];
  Tab.row t [ "yy" ];
  Tab.caption t "some-note";
  let s = Tab.to_string t in
  Alcotest.(check bool) "title" true (contains s "== T ==");
  Alcotest.(check bool) "row padded" true (contains s "yy");
  Alcotest.(check bool) "caption" true (contains s "some-note")

let test_tab_csv () =
  let t = Tab.create ~title:"T" ~header:[ ("a", Tab.Left); ("b", Tab.Right) ] in
  Tab.row t [ "x,1"; "2" ];
  Tab.row t [ "he said \"hi\"" ];
  let path = Filename.temp_file "tab" ".csv" in
  Tab.save_csv t path;
  let csv = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  Alcotest.(check bool) "header line" true (contains csv "a,b\n");
  Alcotest.(check bool) "comma quoted" true (contains csv "\"x,1\",2");
  Alcotest.(check bool) "quotes doubled" true (contains csv "\"he said \"\"hi\"\"\"")

let test_tab_formats () =
  check Alcotest.string "pct" "3.5%" (Tab.pct 3.5);
  check Alcotest.string "times" "1.57x" (Tab.times 1.57);
  check Alcotest.string "fl" "2.00" (Tab.fl 2.0)

(* --- metrics ----------------------------------------------------------- *)

let test_metrics_counters_and_gauges () =
  let r = Metrics.create () in
  Metrics.set_int r "a.count" 1;
  Metrics.set_int r "a.count" 5;
  Metrics.set_int r "a.gauge" 7;
  Metrics.set_float r "a.rate" 0.5;
  let s = Metrics.snapshot r in
  check Alcotest.(option bool) "counter" (Some true)
    (Option.map (( = ) (Metrics.Int 5)) (Metrics.find s "a.count"));
  check Alcotest.(option bool) "gauge" (Some true)
    (Option.map (( = ) (Metrics.Int 7)) (Metrics.find s "a.gauge"));
  check Alcotest.(option bool) "float" (Some true)
    (Option.map (( = ) (Metrics.Float 0.5)) (Metrics.find s "a.rate"))

let test_metrics_snapshot_sorted () =
  let r = Metrics.create () in
  List.iter (fun name -> Metrics.set_int r name 0) [ "z.last"; "a.first"; "m.mid" ];
  let names = List.map fst (Metrics.snapshot r) in
  check Alcotest.(list string) "name order" [ "a.first"; "m.mid"; "z.last" ] names

let test_metrics_type_conflicts () =
  let r = Metrics.create () in
  Metrics.set_int r "x" 1;
  Alcotest.check_raises "int vs float"
    (Invalid_argument "Metrics: \"x\" already registered with another type")
    (fun () -> Metrics.set_float r "x" 1.0);
  Alcotest.check_raises "int vs hist"
    (Invalid_argument "Metrics: \"x\" already registered with another type")
    (fun () -> Metrics.observe r "x" 1)

let test_metrics_nonfinite_rejected () =
  let r = Metrics.create () in
  Alcotest.check_raises "nan"
    (Invalid_argument "Metrics: \"y\" set to a non-finite float")
    (fun () -> Metrics.set_float r "y" Float.nan)

(* The histogram shape and the bucket one observation lands in, read back
   from a snapshot. *)
let hist_buckets v =
  let r = Metrics.create () in
  Metrics.observe r "h" v;
  match Metrics.find (Metrics.snapshot r) "h" with
  | Some (Metrics.Hist { counts; _ }) -> counts
  | _ -> Alcotest.fail "expected a histogram"

let nbuckets = Array.length (hist_buckets 0)

let bucket_of v =
  let counts = hist_buckets v in
  let rec go i = if counts.(i) = 1 then i else go (i + 1) in
  go 0

let test_metrics_hist_bucket_edges () =
  (* bucket 0: v <= 0; bucket i >= 1: [2^(i-1), 2^i - 1]; last absorbs. *)
  check Alcotest.int "32 buckets" 32 nbuckets;
  check Alcotest.int "nonpositive" 0 (bucket_of 0);
  check Alcotest.int "negative" 0 (bucket_of (-5));
  check Alcotest.int "one" 1 (bucket_of 1);
  check Alcotest.int "two" 2 (bucket_of 2);
  check Alcotest.int "three" 2 (bucket_of 3);
  check Alcotest.int "four" 3 (bucket_of 4);
  check Alcotest.int "seven" 3 (bucket_of 7);
  check Alcotest.int "eight" 4 (bucket_of 8);
  check Alcotest.int "1023" 10 (bucket_of 1023);
  check Alcotest.int "1024" 11 (bucket_of 1024);
  check Alcotest.int "overflow capped" (nbuckets - 1) (bucket_of max_int)

let test_metrics_hist_counts () =
  let r = Metrics.create () in
  Metrics.declare_hist r "h.declared";
  List.iter (Metrics.observe r "h") [ 0; 1; 2; 3; 1000 ];
  let s = Metrics.snapshot r in
  (match Metrics.find s "h" with
  | Some (Metrics.Hist { counts; total; sum }) ->
    check Alcotest.int "total" 5 total;
    check Alcotest.int "sum" 1006 sum;
    check Alcotest.int "bucket 0" 1 counts.(0);
    check Alcotest.int "bucket 1" 1 counts.(1);
    check Alcotest.int "bucket 2" 2 counts.(2);
    check Alcotest.int "bucket 10" 1 counts.(10);
    check Alcotest.int "bucket array shape" nbuckets (Array.length counts)
  | _ -> Alcotest.fail "expected a histogram");
  match Metrics.find s "h.declared" with
  | Some (Metrics.Hist { total = 0; _ }) -> ()
  | _ -> Alcotest.fail "declared histogram must appear empty"

let test_metrics_json_deterministic () =
  let build () =
    let r = Metrics.create () in
    Metrics.set_int r "b.n" 3;
    Metrics.set_float r "a.f" 1.5;
    Metrics.observe r "c.h" 9;
    Metrics.snapshot_to_json ~indent:2 (Metrics.snapshot r)
  in
  let j = build () in
  check Alcotest.string "byte-identical re-render" j (build ());
  Alcotest.(check bool) "float rendered" true (contains j "\"a.f\": 1.5");
  Alcotest.(check bool) "int rendered" true (contains j "\"b.n\": 3");
  Alcotest.(check bool) "hist rendered" true (contains j "\"c.h\": {\"buckets\":[")

(* The table-driven bucket_of must agree everywhere with the bit-length
   definition it replaced. *)
let metrics_bucket_of_prop =
  QCheck.Test.make ~name:"bucket_of matches the bit-length reference" ~count:2000
    QCheck.int (fun v ->
      let reference v =
        if v <= 0 then 0
        else begin
          let bits = ref 0 and x = ref v in
          while !x > 0 do
            incr bits;
            x := !x lsr 1
          done;
          min !bits (nbuckets - 1)
        end
      in
      bucket_of v = reference v)

let test_metrics_handle_equiv () =
  let obs = [ -3; 0; 1; 7; 8; 255; 256; 65535; 65536; 1 lsl 40; max_int ] in
  let by_name = Metrics.create () and by_handle = Metrics.create () in
  List.iter (Metrics.observe by_name "h") obs;
  let h = Metrics.hist by_handle "h" in
  List.iter (Metrics.hist_observe h) obs;
  check Alcotest.string "handle and name observes render identically"
    (Metrics.snapshot_to_json (Metrics.snapshot by_name))
    (Metrics.snapshot_to_json (Metrics.snapshot by_handle))

(* Pin the exported bytes for a fixed observation set, so neither the O(1)
   bucket computation nor the handle API can drift the snapshot format. *)
let test_metrics_snapshot_json_pinned () =
  let r = Metrics.create () in
  Metrics.set_float r "f" 2.5;
  Metrics.set_int r "n" 5;
  let h = Metrics.hist r "h" in
  List.iter (Metrics.hist_observe h) [ 0; 1; 2; 3; 1000 ];
  let expected =
    "{\n\
    \  \"f\": 2.5,\n\
    \  \"h\": {\"buckets\":[1,1,2,0,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],\"total\":5,\"sum\":1006},\n\
    \  \"n\": 5\n\
     }"
  in
  check Alcotest.string "pinned snapshot JSON"
    expected
    (Metrics.snapshot_to_json ~indent:2 (Metrics.snapshot r))

let test_metrics_json_string () =
  check Alcotest.string "quote, backslash and control bytes escaped; UTF-8 raw"
    "\"a\\\"b\\\\c\\n\\r\\t\\u0001\\u001f\x7f\xc3\xa9\""
    (Metrics.json_string "a\"b\\c\n\r\t\x01\x1f\x7f\xc3\xa9")

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* --fault specs: KATs for accepted and rejected specs.  The rejects are
   regressions: int_of_string read "-1" as an index no cell has (the run
   exited 0 having injected nothing) and "0x1" as index 1. *)
let test_fault_parse_ok () =
  let ok spec expected =
    match Fault.parse spec with
    | Ok p ->
      (* The decisions of indices 0..8 at attempts 0..3, against the
         [(index, kind, first_attempts)] the spec plans. *)
      List.iter
        (fun index ->
          for attempt = 0 to 3 do
            let want =
              List.find_map
                (fun (i, kind, first) ->
                  if i = index && attempt < first then Some kind else None)
                expected
            in
            Alcotest.(check bool)
              (Printf.sprintf "%s: index %d attempt %d" spec index attempt)
              true
              (Fault.decide p ~index ~attempt = want)
          done)
        (List.init 9 Fun.id)
    | Error e -> Alcotest.failf "Fault.parse %S = Error %s" spec e
  in
  ok "crash@2" [ (2, Fault.Crash, max_int) ];
  ok "flaky@0" [ (0, Fault.Crash, 1) ];
  ok " kill@1,kill@3 " [ (1, Fault.Kill, 1); (3, Fault.Kill, 1) ];
  ok "slow@4,poison@5,livelock@6"
    [ (4, Fault.Slow, max_int); (5, Fault.Poison, max_int); (6, Fault.Livelock, max_int) ];
  ok "crash@007" [ (7, Fault.Crash, max_int) ]

let test_fault_parse_rejects () =
  List.iter
    (fun spec ->
      match Fault.parse spec with
      | Ok _ -> Alcotest.failf "Fault.parse %S accepted a bad spec" spec
      | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%S: diagnostic names the spec" spec)
          true
          (contains_sub e "bad fault spec"))
    [ ""; "crash"; "crash@"; "crash@-1"; "crash@0x1"; "crash@0b1"; "crash@0o7";
      "crash@+1"; "crash@1_000"; "crash@ 1"; "crash@1.5";
      "crash@99999999999999999999999"; "boom@1"; "crash@1@2"; "crash@1,";
      ",crash@1"; "CRASH@1" ]

(* Arbitrary input never raises and yields Ok or a one-line Error.  Half
   the inputs come from the spec alphabet so near-miss specs are common. *)
let fault_parse_total_prop =
  let spec_chars = List.of_seq (String.to_seq "crashkil@,-0x19 \n") in
  QCheck.Test.make ~name:"Fault.parse is total with one-line errors" ~count:500
    QCheck.(
      oneof [ string; string_gen_of_size Gen.(0 -- 24) (Gen.oneofl spec_chars) ])
    (fun s ->
      match Fault.parse s with
      | Ok _ -> true
      | Error e -> not (String.contains e '\n'))

let suite =
  [
    ( "util.rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
        Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
        Alcotest.test_case "in_range bounds" `Quick test_rng_in_range;
        Alcotest.test_case "chance extremes" `Quick test_rng_chance_extremes;
        Alcotest.test_case "chance rate" `Quick test_rng_chance_rate;
        Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
        Alcotest.test_case "weighted pick bias" `Quick test_weighted_pick_bias;
        Alcotest.test_case "weighted rejects bad weights" `Quick test_weighted_rejects;
        QCheck_alcotest.to_alcotest pick_matches_linear_prop;
        Alcotest.test_case "splitmix64 KAT seed 0" `Quick test_rng_kat_seed0;
        Alcotest.test_case "splitmix64 KAT seed 1234567" `Quick test_rng_kat_seed1234567;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "mean" `Quick test_stats_mean;
        Alcotest.test_case "mean_opt" `Quick test_stats_mean_opt;
        Alcotest.test_case "ratio_pct zero denominator rejected" `Quick test_stats_ratio_pct;
        Alcotest.test_case "percentile" `Quick test_percentile;
        Alcotest.test_case "percentile rejects" `Quick test_percentile_rejects;
        Alcotest.test_case "percentile rank KATs" `Quick test_percentile_kats;
        QCheck_alcotest.to_alcotest nearest_rank_exact_prop;
        QCheck_alcotest.to_alcotest percentile_monotone_prop;
        QCheck_alcotest.to_alcotest stats_mean_prop;
      ] );
    ( "util.bitset",
      [
        Alcotest.test_case "basic" `Quick test_bitset_basic;
        Alcotest.test_case "bounds" `Quick test_bitset_bounds;
        Alcotest.test_case "copy isolation" `Quick test_bitset_copy_isolated;
        QCheck_alcotest.to_alcotest bitset_prop;
      ] );
    ( "util.tab",
      [
        Alcotest.test_case "render" `Quick test_tab_render;
        Alcotest.test_case "csv" `Quick test_tab_csv;
        Alcotest.test_case "formats" `Quick test_tab_formats;
      ] );
    ( "util.metrics",
      [
        Alcotest.test_case "counters and gauges" `Quick test_metrics_counters_and_gauges;
        Alcotest.test_case "snapshot name order" `Quick test_metrics_snapshot_sorted;
        Alcotest.test_case "type conflicts" `Quick test_metrics_type_conflicts;
        Alcotest.test_case "non-finite rejected" `Quick test_metrics_nonfinite_rejected;
        Alcotest.test_case "hist bucket edges" `Quick test_metrics_hist_bucket_edges;
        Alcotest.test_case "hist counts" `Quick test_metrics_hist_counts;
        Alcotest.test_case "json determinism" `Quick test_metrics_json_deterministic;
        Alcotest.test_case "handle = named observe" `Quick test_metrics_handle_equiv;
        Alcotest.test_case "snapshot JSON pinned" `Quick test_metrics_snapshot_json_pinned;
        Alcotest.test_case "json_string escaping" `Quick test_metrics_json_string;
        QCheck_alcotest.to_alcotest metrics_bucket_of_prop;
      ] );
    ( "util.fault",
      [
        Alcotest.test_case "spec KATs" `Quick test_fault_parse_ok;
        Alcotest.test_case "spec rejects" `Quick test_fault_parse_rejects;
        QCheck_alcotest.to_alcotest fault_parse_total_prop;
      ] );
  ]
