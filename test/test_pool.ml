(* The domain pool and the determinism contract of the parallel experiment
   runner: merged results — and the tables rendered from them — must be
   byte-identical for every worker count. *)

module Pool = Pv_util.Pool
module Perf = Pv_experiments.Perf
module Perf_report = Pv_experiments.Perf_report
module Schemes = Pv_experiments.Schemes
module Security = Pv_experiments.Security
module Supervise = Pv_experiments.Supervise
module Tab = Pv_util.Tab
module Lebench = Pv_workloads.Lebench
module Apps = Pv_workloads.Apps

let check = Alcotest.check

let run ~jobs f xs = Pool.with_pool ~jobs (fun p -> Pool.map p f xs)

(* --- pool mechanics -------------------------------------------------- *)

let test_empty () =
  check Alcotest.(list int) "no jobs" [] (run ~jobs:4 (fun x -> x) []);
  Pool.with_pool ~jobs:3 (fun p ->
      check Alcotest.(list int) "no jobs, pooled" [] (Pool.map p (fun x -> x) []))

let test_one_job () =
  check Alcotest.(list int) "one job" [ 14 ] (run ~jobs:4 (fun x -> 2 * x) [ 7 ])

let test_many_jobs_few_workers () =
  let xs = List.init 200 (fun i -> i) in
  let expected = List.map (fun i -> i * i) xs in
  check Alcotest.(list int) "200 jobs on 3 workers" expected
    (run ~jobs:3 (fun i -> i * i) xs)

let test_order_with_skewed_durations () =
  (* Front-load the heavy jobs so light ones finish first on other workers;
     the result order must still be submission order. *)
  let work i =
    let trips = if i < 4 then 2_000_000 else 100 in
    let acc = ref i in
    for _ = 1 to trips do
      acc := (!acc * 1103515245) + 12345
    done;
    ignore !acc;
    i
  in
  let xs = List.init 64 (fun i -> i) in
  check Alcotest.(list int) "order preserved" xs (run ~jobs:4 work xs)

let test_serial_path_equals_map () =
  let f i = (3 * i) - 1 in
  let xs = List.init 17 (fun i -> i) in
  check Alcotest.(list int) "-j 1 is List.map" (List.map f xs) (run ~jobs:1 f xs)

exception Boom of int

let test_exception_propagates () =
  let f i = if i mod 10 = 3 then raise (Boom i) else i in
  (* The lowest-index failure wins, for every worker count. *)
  List.iter
    (fun jobs ->
      match run ~jobs f (List.init 40 (fun i -> i)) with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i ->
        check Alcotest.int (Printf.sprintf "first failure at -j %d" jobs) 3 i)
    [ 1; 2; 4; 8 ]

let test_pool_survives_job_failure () =
  (* A raising batch must not wedge the pool: the same pool still runs the
     next batch, and shutdown joins all domains cleanly. *)
  Pool.with_pool ~jobs:4 (fun p ->
      (match Pool.map p (fun i -> if i = 5 then failwith "job 5" else i) (List.init 9 Fun.id) with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure m -> check Alcotest.string "message" "job 5" m);
      check Alcotest.(list int) "pool usable after failure" [ 2; 4; 6 ]
        (Pool.map p (fun i -> 2 * i) [ 1; 2; 3 ]))

let test_shutdown_semantics () =
  let p = Pool.create ~jobs:3 in
  check Alcotest.int "size" 3 (Pool.size p);
  check Alcotest.(list int) "works" [ 1; 2 ] (Pool.map p Fun.id [ 1; 2 ]);
  Pool.shutdown p;
  Pool.shutdown p (* idempotent *);
  Alcotest.check_raises "map after shutdown" (Invalid_argument "Pool.map: pool is shut down")
    (fun () -> ignore (Pool.map p Fun.id [ 1 ]))

let test_results_actually_parallel () =
  (* Sanity that jobs really run off the calling domain.  Two jobs rendezvous:
     each waits until both have started, which can only happen if two domains
     run them concurrently — so the recorded domain ids must differ. *)
  let arrived = Atomic.make 0 in
  let job _ =
    Atomic.incr arrived;
    let spins = ref 0 in
    while Atomic.get arrived < 2 && !spins < 2_000_000_000 do
      incr spins;
      Domain.cpu_relax ()
    done;
    (Domain.self () :> int)
  in
  match run ~jobs:4 job [ 0; 1 ] with
  | [ a; b ] -> Alcotest.(check bool) "two domains participated" true (a <> b)
  | _ -> Alcotest.fail "unexpected result shape"

let test_jobs_above_domain_cap () =
  (* The runtime caps live domains (128 in OCaml 5.1).  An oversized pool
     runs with the domains it could start, still computes exactly List.map,
     and hands every domain back on shutdown: a later pool gets two. *)
  let xs = List.init 200 Fun.id in
  let f i = (i * 31) + 7 in
  Pool.with_pool ~jobs:1000 (fun p ->
      Alcotest.(check bool) "size clamped below the request" true (Pool.size p < 1000);
      check Alcotest.(list int) "-j 1000 is List.map" (List.map f xs) (Pool.map p f xs));
  test_results_actually_parallel ()

(* --- reference pool ---------------------------------------------------- *)

let test_matches_reference_pool () =
  (* The serial List.map is the contract's definition: same results on a
     clean batch, same first failure on a dirty one, at every size. *)
  let xs = List.init 257 (fun i -> i) in
  let f i = (i * 7919) lxor (i lsl 3) in
  List.iter
    (fun jobs ->
      check Alcotest.(list int) (Printf.sprintf "clean batch at -j %d" jobs) (List.map f xs)
        (run ~jobs f xs))
    [ 1; 2; 4; 8 ];
  let g i = if i mod 50 = 37 then raise (Boom i) else i in
  let first thunk = match thunk () with _ -> None | exception Boom i -> Some i in
  let want = first (fun () -> List.map g xs) in
  List.iter
    (fun jobs ->
      check Alcotest.(option int) (Printf.sprintf "first failure at -j %d" jobs) want
        (first (fun () -> run ~jobs g xs)))
    [ 1; 2; 4; 8 ]

(* --- determinism of the experiment layer ------------------------------ *)

(* The experiment matrices run as supervised sweeps; a sweep's results are
   merged in declaration order whatever the pool size. *)
let sweep ~jobs cells = Supervise.run ~config:{ Supervise.default with jobs } cells

let lebench_rows ~jobs ~scale ~tests ~variants =
  Perf.matrix_of_sweep
    ~names:(List.map (fun t -> t.Lebench.name) tests)
    ~width:(List.length variants)
    (sweep ~jobs (Perf.lebench_cells ~scale ~tests ~variants ()))

let apps_rows ~jobs ~scale ~apps ~variants =
  Perf.matrix_of_sweep
    ~names:(List.map (fun a -> a.Apps.name) apps)
    ~width:(List.length variants)
    (sweep ~jobs (Perf.apps_cells ~scale ~apps ~variants ()))

(* Structural identity of run records; counters are all-int records so
   polymorphic equality is exact, and floats must match bitwise — that is
   the determinism claim.  Every cell must have succeeded. *)
let matrices_identical m1 m2 =
  Perf.complete_matrix m1 <> None && m1 = m2

let labels variants = List.map (fun v -> v.Schemes.label) variants

let fig92_variants = [ Schemes.unsafe; Schemes.fence; Schemes.perspective ]

let test_fig92_deterministic () =
  (* Fig 9.2-shaped job set: LEBench tests x schemes, scaled down. *)
  let tests = [ Lebench.find "ref"; Lebench.find "select"; Lebench.find "mmap" ] in
  let serial = lebench_rows ~scale:0.2 ~jobs:1 ~tests ~variants:fig92_variants in
  let parallel = lebench_rows ~scale:0.2 ~jobs:4 ~tests ~variants:fig92_variants in
  Alcotest.(check bool) "-j 4 run records identical to -j 1" true
    (matrices_identical serial parallel);
  (* The acceptance criterion verbatim: rendered tables are byte-identical. *)
  let fig m = Tab.to_string (Perf_report.fig_lebench_partial ~labels:(labels fig92_variants) m) in
  check Alcotest.string "fig 9.2 table bytes" (fig serial) (fig parallel)

let test_fig93_deterministic () =
  (* Fig 9.3-shaped job set: apps x schemes. *)
  let apps = [ Apps.memcached; Apps.redis ] in
  let variants = [ Schemes.unsafe; Schemes.perspective ] in
  let serial = apps_rows ~scale:0.15 ~jobs:1 ~apps ~variants in
  let parallel = apps_rows ~scale:0.15 ~jobs:4 ~apps ~variants in
  Alcotest.(check bool) "-j 4 run records identical to -j 1" true
    (matrices_identical serial parallel);
  let fig m = Tab.to_string (Perf_report.fig_apps_partial ~labels:(labels variants) m) in
  check Alcotest.string "fig 9.3 table bytes" (fig serial) (fig parallel)

let test_counters_and_fences_identical () =
  (* Spot-check the fields the tables are built from, including the nested
     counter record and fence counts. *)
  let tests = [ Lebench.find "poll" ] in
  let run jobs =
    match lebench_rows ~scale:0.2 ~jobs ~tests ~variants:[ Schemes.perspective ] with
    | [ (_, [ Some r ]) ] -> r
    | _ -> Alcotest.fail "unexpected matrix shape"
  in
  let a = run 1 and b = run 4 in
  check Alcotest.int "cycles" a.Perf.cycles b.Perf.cycles;
  check Alcotest.int "committed" a.Perf.committed b.Perf.committed;
  check Alcotest.int "isv fences" a.Perf.counters.Pv_uarch.Pipeline.fences_isv
    b.Perf.counters.Pv_uarch.Pipeline.fences_isv;
  check Alcotest.int "dsv fences" a.Perf.counters.Pv_uarch.Pipeline.fences_dsv
    b.Perf.counters.Pv_uarch.Pipeline.fences_dsv;
  Alcotest.(check (option (float 0.0)))
    "isv hit rate (bitwise)" a.Perf.isv_hit_rate b.Perf.isv_hit_rate;
  Alcotest.(check (option (float 0.0)))
    "dsv hit rate (bitwise)" a.Perf.dsv_hit_rate b.Perf.dsv_hit_rate

let test_pocs_deterministic () =
  let verdicts jobs =
    List.concat_map
      (fun (_, v) -> Option.get v)
      (sweep ~jobs (Security.run_pocs_cells ())).Supervise.results
  in
  let serial = verdicts 1 in
  let parallel = verdicts 3 in
  Alcotest.(check bool) "verdict lists identical" true (serial = parallel);
  check Alcotest.int "28 verdicts" 28 (List.length parallel)

let suite =
  [
    ( "pool.mechanics",
      [
        Alcotest.test_case "empty batch" `Quick test_empty;
        Alcotest.test_case "one job" `Quick test_one_job;
        Alcotest.test_case "jobs >> workers" `Quick test_many_jobs_few_workers;
        Alcotest.test_case "order under skew" `Quick test_order_with_skewed_durations;
        Alcotest.test_case "-j 1 serial path" `Quick test_serial_path_equals_map;
        Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
        Alcotest.test_case "pool survives failure" `Quick test_pool_survives_job_failure;
        Alcotest.test_case "shutdown" `Quick test_shutdown_semantics;
        Alcotest.test_case "uses several domains" `Quick test_results_actually_parallel;
        Alcotest.test_case "-j above the domain cap" `Quick test_jobs_above_domain_cap;
      ] );
    ( "pool.supervised",
      [
        Alcotest.test_case "matches reference pool" `Quick test_matches_reference_pool;
      ] );
    ( "pool.determinism",
      [
        Alcotest.test_case "Fig 9.2 job set" `Slow test_fig92_deterministic;
        Alcotest.test_case "Fig 9.3 job set" `Slow test_fig93_deterministic;
        Alcotest.test_case "counters and fences" `Slow test_counters_and_fences_identical;
        Alcotest.test_case "PoC verdicts" `Slow test_pocs_deterministic;
      ] );
  ]
