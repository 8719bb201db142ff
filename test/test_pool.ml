(* The sweep executor and the determinism contract of the parallel
   experiment runner.  At [jobs = 1] a sweep's cells run in the calling
   process, in order; above it they run on forked worker processes.
   Merged results — and the tables rendered from them — must be
   byte-identical for every [jobs]. *)

module Perf = Pv_experiments.Perf
module Perf_report = Pv_experiments.Perf_report
module Schemes = Pv_experiments.Schemes
module Security = Pv_experiments.Security
module Supervise = Pv_experiments.Supervise
module Tab = Pv_util.Tab
module Lebench = Pv_workloads.Lebench
module Apps = Pv_workloads.Apps

let check = Alcotest.check

(* [f] over [xs] as one sweep at [jobs]: each element's value, [None] for
   a cell that raised, and the sweep's (key, reason) failures. *)
let sweep_map ~jobs f xs =
  let cells =
    List.mapi (fun i x -> Supervise.cell (Printf.sprintf "x/%04d" i) (fun ~fuel:_ -> f x)) xs
  in
  let s = Supervise.run ~config:{ Supervise.default with jobs } cells in
  ( List.map snd s.Supervise.results,
    List.map (fun (f : Supervise.failure) -> (f.key, f.reason)) s.Supervise.failures )

let run ~jobs f xs = List.map Option.get (fst (sweep_map ~jobs f xs))

(* --- executor mechanics ---------------------------------------------- *)

let test_empty () =
  check Alcotest.(list int) "no cells" [] (run ~jobs:4 (fun x -> x) []);
  check Alcotest.(list int) "no cells, serial" [] (run ~jobs:1 (fun x -> x) [])

let test_one_job () =
  check Alcotest.(list int) "one cell" [ 14 ] (run ~jobs:4 (fun x -> 2 * x) [ 7 ])

let test_many_jobs_few_workers () =
  let xs = List.init 200 (fun i -> i) in
  let expected = List.map (fun i -> i * i) xs in
  check Alcotest.(list int) "200 cells on 3 workers" expected
    (run ~jobs:3 (fun i -> i * i) xs)

let test_order_with_skewed_durations () =
  (* Front-load the heavy cells so light ones finish first on other
     workers; the result order must still be declaration order. *)
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
  (* At -j 1 every cell runs in this process, in declaration order. *)
  let seen = ref [] in
  let f i =
    seen := i :: !seen;
    ((3 * i) - 1, Unix.getpid ())
  in
  let xs = List.init 17 (fun i -> i) in
  check
    Alcotest.(list (pair int int))
    "-j 1 is List.map in the calling process"
    (List.map (fun i -> ((3 * i) - 1, Unix.getpid ())) xs)
    (run ~jobs:1 f xs);
  check Alcotest.(list int) "in declaration order" xs (List.rev !seen)

exception Boom of int

let test_exception_propagates () =
  (* A raising cell fails alone, with its exception as the reason, and the
     failures are the same for every worker count. *)
  let f i = if i mod 10 = 3 then raise (Boom i) else i in
  let xs = List.init 40 (fun i -> i) in
  let want =
    List.filter_map
      (fun i ->
        if i mod 10 = 3 then Some (Printf.sprintf "x/%04d" i, Printexc.to_string (Boom i))
        else None)
      xs
  in
  List.iter
    (fun jobs ->
      let values, failures = sweep_map ~jobs f xs in
      check
        Alcotest.(list (pair string string))
        (Printf.sprintf "failures at -j %d" jobs)
        want failures;
      check Alcotest.int
        (Printf.sprintf "values at -j %d" jobs)
        36
        (List.length (List.filter Option.is_some values)))
    [ 1; 2; 4; 8 ]

let test_pool_survives_job_failure () =
  (* A sweep whose cells raise, or whose worker dies mid-cell, leaves the
     next sweep at the same -j unharmed. *)
  let values, failures =
    sweep_map ~jobs:4
      (fun i ->
        if i = 5 then failwith "cell 5";
        if i = 6 then Unix.kill (Unix.getpid ()) Sys.sigkill;
        i)
      (List.init 9 Fun.id)
  in
  check Alcotest.int "two failed cells" 2 (List.length failures);
  check Alcotest.int "the others completed" 7 (List.length (List.filter Option.is_some values));
  check Alcotest.(list int) "the next sweep runs" [ 2; 4; 6 ]
    (run ~jobs:4 (fun i -> 2 * i) [ 1; 2; 3 ])

let test_shutdown_semantics () =
  (* No worker outlives its sweep: once [run] returns, this process has no
     child left to reap. *)
  check Alcotest.(list int) "works" [ 1; 2; 3 ] (run ~jobs:3 Fun.id [ 1; 2; 3 ]);
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  | pid, _ -> Alcotest.failf "a child (%d) outlived its sweep" pid

let test_jobs_above_domain_cap () =
  (* A -j far above the cap of 128 workers still computes exactly List.map;
     the pool forks no more workers than there are cells, three here.  The
     cap itself is the [min] in [Supervise]'s executor. *)
  let xs = [ 1; 2; 3 ] in
  let f i = (i * 31) + 7 in
  check Alcotest.(list int) "-j 1000 is List.map" (List.map f xs) (run ~jobs:1000 f xs)

(* --- reference: the serial List.map ------------------------------------ *)

let test_matches_reference_pool () =
  (* The serial List.map is the contract's definition: same values on a
     clean batch, same failed cells on a dirty one, at every size. *)
  let xs = List.init 257 (fun i -> i) in
  let f i = (i * 7919) lxor (i lsl 3) in
  List.iter
    (fun jobs ->
      check Alcotest.(list int) (Printf.sprintf "clean batch at -j %d" jobs) (List.map f xs)
        (run ~jobs f xs))
    [ 1; 2; 4; 8 ];
  let g i = if i mod 50 = 37 then raise (Boom i) else i in
  let want = List.map (fun i -> match g i with v -> Some v | exception Boom _ -> None) xs in
  List.iter
    (fun jobs ->
      check Alcotest.(list (option int)) (Printf.sprintf "failed cells at -j %d" jobs) want
        (fst (sweep_map ~jobs g xs)))
    [ 1; 2; 4; 8 ]

(* --- determinism of the experiment layer ------------------------------ *)

(* The experiment matrices run as supervised sweeps; a sweep's results are
   merged in declaration order whatever the worker count. *)
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
