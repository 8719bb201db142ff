(* The supervision layer: the checkpoint store and its resume preflight,
   fault-degraded sweeps, resume convergence, and the cycle-fuel
   watchdog. *)

module Fault = Pv_util.Fault
module Supervise = Pv_experiments.Supervise
module Perf = Pv_experiments.Perf
module Perf_report = Pv_experiments.Perf_report
module Schemes = Pv_experiments.Schemes
module Tab = Pv_util.Tab
module Lebench = Pv_workloads.Lebench

let check = Alcotest.check

(* One LEBench run as a perf sweep's cell makes it, under [fuel]. *)
let lebench_run ?seed ?view_cache_entries ?trace ?fuel ~scale v test =
  match
    Perf.lebench_cells ?seed ~scale ?view_cache_entries ?trace ~tests:[ test ] ~variants:[ v ] ()
  with
  | [ cell ] -> cell.Supervise.run ~fuel
  | _ -> Alcotest.fail "one cell expected"

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* A checkpoint path that does not exist yet, like a fresh CLI run's. *)
let with_checkpoint f =
  let path = Filename.temp_file "pv_supervise" ".ckpt" in
  Sys.remove path;
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then rm_rf path) (fun () -> f path)

(* [n] cells whose value and descriptor depend on [seed]. *)
let seeded_cells ~seed n =
  List.init n (fun i ->
      Supervise.cell
        ~cache:(Printf.sprintf "sq|i=%d|seed=%d" i seed)
        (Printf.sprintf "sq/%d" i)
        (fun ~fuel:_ -> (i * i) + seed))

let square_cells n = seeded_cells ~seed:0 n

let results = Alcotest.(list (pair string (option int)))
let failures = Alcotest.(list (triple string int string))

let failure_shapes (s : _ Supervise.sweep) =
  List.map (fun (f : Supervise.failure) -> (f.key, f.attempts, f.reason)) s.Supervise.failures

(* --- resume preflight (the CLI's --resume diagnostic) ------------------ *)

let preflight_error ~sub path =
  match Supervise.resume_preflight path with
  | Error why ->
    Alcotest.(check bool) (Printf.sprintf "diagnostic %S names %S" why sub) true (contains ~sub why)
  | Ok n -> Alcotest.failf "%s must be unusable, got %d entries" path n

let test_preflight_missing () =
  preflight_error ~sub:"does not exist" "/nonexistent/pv.ckpt"

let test_preflight_empty () =
  (* A zero-byte file, a journal of the pre-store format and an empty
     directory: none is a store with entries. *)
  with_checkpoint (fun path ->
      Out_channel.with_open_bin path (fun _ -> ());
      preflight_error ~sub:"not a directory" path;
      Out_channel.with_open_bin path (fun ch ->
          Out_channel.output_string ch "pvjrnl2\n";
          Out_channel.output_string ch (Marshal.to_string ("sq/0", 0) []));
      preflight_error ~sub:"not a directory" path;
      Sys.remove path;
      Unix.mkdir path 0o755;
      preflight_error ~sub:"no entries" path)

let test_preflight_fully_torn () =
  (* A run killed during its very first store leaves only a temp file:
     nothing to resume from, and the preflight must say so rather than
     silently re-running everything. *)
  with_checkpoint (fun path ->
      Unix.mkdir path 0o755;
      Out_channel.with_open_bin (Filename.concat path ".tmp.4242.1") (fun ch ->
          Out_channel.output_string ch "{\n  \"rescache_version\": 1,");
      preflight_error ~sub:"no entries" path)

let test_preflight_usable () =
  with_checkpoint (fun path ->
      ignore
        (Supervise.run ~config:{ Supervise.default with checkpoint = Some path } (square_cells 3));
      Out_channel.with_open_bin (Filename.concat path ".tmp.4242.1") (fun _ -> ());
      check Alcotest.(result int string) "counts the entries, not the temp file" (Ok 3)
        (Supervise.resume_preflight path))

(* --- supervised sweeps ------------------------------------------------ *)

let test_sweep_clean () =
  let sweep = Supervise.run (square_cells 6) in
  check Alcotest.int "no failures" 0 (Supervise.failed sweep);
  check Alcotest.int "all executed" 6 sweep.Supervise.executed;
  check Alcotest.int "none restored" 0 sweep.Supervise.restored;
  check
    Alcotest.(list (pair string (option int)))
    "results in declaration order"
    (List.init 6 (fun i -> (Printf.sprintf "sq/%d" i, Some (i * i))))
    sweep.Supervise.results;
  check Alcotest.int "exit code" 0 (Supervise.exit_code [ sweep ])

let test_sweep_degrades_on_fault () =
  let fault = Result.get_ok (Fault.parse "crash@2") in
  let config = { Supervise.default with jobs = 2; fault } in
  let sweep = Supervise.run ~config (square_cells 5) in
  check Alcotest.int "one failure" 1 (Supervise.failed sweep);
  check Alcotest.(option (option int)) "failed cell is None" (Some None)
    (List.assoc_opt "sq/2" sweep.Supervise.results);
  check Alcotest.(option (option int)) "neighbours survive" (Some (Some 9))
    (List.assoc_opt "sq/3" sweep.Supervise.results);
  (match sweep.Supervise.failures with
  | [ f ] ->
    check Alcotest.string "failure key" "sq/2" f.Supervise.key;
    Alcotest.(check bool) "reason mentions the injected crash" true
      (String.length f.Supervise.reason > 0)
  | _ -> Alcotest.fail "expected exactly one failure record");
  check Alcotest.int "degraded exit code" 1 (Supervise.exit_code [ sweep ])

let test_sweep_retry_heals_flaky () =
  let fault = Result.get_ok (Fault.parse "flaky@1") in
  let config = { Supervise.default with fault; retries = 1 } in
  let sweep = Supervise.run ~config (square_cells 3) in
  check Alcotest.int "no failures after retry" 0 (Supervise.failed sweep);
  check Alcotest.(option (option int)) "flaky cell healed" (Some (Some 1))
    (List.assoc_opt "sq/1" sweep.Supervise.results)

let test_raising_cell_fails_alone () =
  (* One raising cell must not eat the sweep, and an ordinary exception is
     permanent: no retry is spent on it. *)
  let cells =
    List.init 6 (fun i ->
        Supervise.cell (Printf.sprintf "r/%d" i) (fun ~fuel:_ ->
            if i = 3 then failwith "bad" else i))
  in
  let sweep = Supervise.run ~config:{ Supervise.default with jobs = 2; retries = 2 } cells in
  check results "neighbours succeed"
    (List.init 6 (fun i -> (Printf.sprintf "r/%d" i, if i = 3 then None else Some i)))
    sweep.Supervise.results;
  check failures "the one failure" [ ("r/3", 1, "Failure(\"bad\")") ] (failure_shapes sweep)

let test_poison_is_permanent () =
  (* Poison is permanent: retries must not be spent on it. *)
  let fault = Result.get_ok (Fault.parse "poison@1") in
  let config = { Supervise.default with jobs = 2; fault; retries = 5 } in
  check failures "failed after one attempt"
    [ ("sq/1", 1, "injected poisoned result (job 1, attempt 0)") ]
    (failure_shapes (Supervise.run ~config (square_cells 3)))

let test_mixed_plan_deterministic () =
  (* The fault-injected determinism claim: an explicit plan of every
     in-process kind gives identical values, attempt counts and failure
     reasons at any -j. *)
  let fault = Result.get_ok (Fault.parse "crash@1,flaky@3,slow@4,poison@6,livelock@8") in
  (* No cycle budget is configured, so only a livelocked cell gets one; it
     fails as a starved simulation would. *)
  let cells =
    List.init 10 (fun i ->
        Supervise.cell (Printf.sprintf "m/%d" i) (fun ~fuel ->
            match fuel with
            | Some budget -> failwith (Printf.sprintf "out of fuel at %d cycles" budget)
            | None -> 3 * i))
  in
  let sweep jobs = Supervise.run ~config:{ Supervise.default with jobs; fault; retries = 1 } cells in
  let serial = sweep 1 in
  check results "-j 1 results"
    (List.init 10 (fun i ->
         (Printf.sprintf "m/%d" i, if List.mem i [ 1; 6; 8 ] then None else Some (3 * i))))
    serial.Supervise.results;
  check failures "-j 1 failures"
    [
      ("m/1", 2, "injected crash (job 1, attempt 1)");
      ("m/6", 1, "injected poisoned result (job 6, attempt 0)");
      ("m/8", 1, "Failure(\"out of fuel at 5000 cycles\")");
    ]
    (failure_shapes serial);
  List.iter
    (fun jobs ->
      let par = sweep jobs in
      Alcotest.(check bool)
        (Printf.sprintf "-j %d results and failures identical to -j 1" jobs)
        true
        (par.Supervise.results = serial.Supervise.results
        && par.Supervise.failures = serial.Supervise.failures))
    [ 2; 4 ]

(* Fault indices count the cells a run executes: [b] repeats [a]'s
   descriptor, so it aliases [a] instead of becoming runnable cell 1, and
   crash@1 hits [c]. *)
let test_fault_index_counts_executed_cells () =
  let cell key desc v = Supervise.cell ~cache:desc key (fun ~fuel:_ -> v) in
  let fault = Result.get_ok (Fault.parse "crash@1") in
  let sweep =
    Supervise.run
      ~config:{ Supervise.default with jobs = 2; fault }
      [ cell "a" "d|a" 1; cell "b" "d|a" 2; cell "c" "d|c" 3 ]
  in
  check results "b aliases a; c fails"
    [ ("a", Some 1); ("b", Some 1); ("c", None) ]
    sweep.Supervise.results;
  check failures "the crash hits c"
    [ ("c", 1, "injected crash (job 1, attempt 0)") ]
    (failure_shapes sweep)

let test_duplicate_keys_rejected () =
  let cells = [ Supervise.cell "dup" (fun ~fuel:_ -> 0); Supervise.cell "dup" (fun ~fuel:_ -> 1) ] in
  Alcotest.check_raises "duplicate keys" (Invalid_argument "Supervise.run: duplicate cell keys")
    (fun () -> ignore (Supervise.run cells))

let test_workers_after_domain_raise () =
  (* OCaml 5 refuses to fork once a domain has been spawned: a sweep at
     -j 2 then raises instead of running in-process.  The domain starts in
     a child, so this process can still fork. *)
  let raised =
    Test_procpool.in_child (fun () ->
        Domain.join (Domain.spawn ignore);
        match Supervise.run ~config:{ Supervise.default with jobs = 2 } (square_cells 3) with
        | _ -> false
        | exception Failure _ -> true)
  in
  Alcotest.(check bool) "-j 2 after a domain raises Failure" true raised

let test_checkpoint_resume_roundtrip () =
  with_checkpoint (fun path ->
      (* First run: cell 3 crashes persistently; the other five checkpoint. *)
      let fault = Result.get_ok (Fault.parse "crash@3") in
      let first =
        Supervise.run
          ~config:{ Supervise.default with jobs = 2; fault; checkpoint = Some path }
          (square_cells 6)
      in
      check Alcotest.int "first run fails one cell" 1 (Supervise.failed first);
      (* Resume without the fault: only the failed cell re-runs. *)
      let resumed =
        Supervise.run
          ~config:{ Supervise.default with checkpoint = Some path; resume = true }
          (square_cells 6)
      in
      check Alcotest.int "five restored" 5 resumed.Supervise.restored;
      check Alcotest.int "one executed" 1 resumed.Supervise.executed;
      check Alcotest.int "resumed run clean" 0 (Supervise.failed resumed);
      let clean = Supervise.run (square_cells 6) in
      Alcotest.(check bool) "resumed results converge to the uninterrupted run" true
        (resumed.Supervise.results = clean.Supervise.results))

let test_resume_checks_inputs () =
  (* The checkpoint serves a cell only for the inputs it was measured with:
     the same keys under a new seed must all run again and return the new
     values, while the unchanged inputs are still restored. *)
  with_checkpoint (fun path ->
      let run ~resume ~seed =
        Supervise.run
          ~config:{ Supervise.default with checkpoint = Some path; resume }
          (seeded_cells ~seed 4)
      in
      let values ~seed = List.init 4 (fun i -> (Printf.sprintf "sq/%d" i, Some ((i * i) + seed))) in
      ignore (run ~resume:false ~seed:1);
      let changed = run ~resume:true ~seed:2 in
      check Alcotest.int "changed inputs: nothing restored" 0 changed.Supervise.restored;
      check Alcotest.int "changed inputs: everything executed" 4 changed.Supervise.executed;
      check results "changed inputs: the new values" (values ~seed:2) changed.Supervise.results;
      let same = run ~resume:true ~seed:1 in
      check Alcotest.int "unchanged inputs: everything restored" 4 same.Supervise.restored;
      check Alcotest.int "unchanged inputs: nothing executed" 0 same.Supervise.executed;
      check results "unchanged inputs: the old values" (values ~seed:1) same.Supervise.results)

let test_resume_without_journal_runs_everything () =
  let config = { Supervise.default with checkpoint = None; resume = true } in
  let sweep = Supervise.run ~config (square_cells 4) in
  check Alcotest.int "nothing restored" 0 sweep.Supervise.restored;
  check Alcotest.int "everything executed" 4 sweep.Supervise.executed

(* --- the cycle-fuel watchdog ------------------------------------------ *)

let test_watchdog_fires_on_starved_fuel () =
  (* A real (scaled-down) simulation with a tiny cycle budget must end in
     the structured timeout, not a hang or an unstructured error. *)
  match lebench_run ~scale:0.2 ~fuel:2_000 Schemes.perspective (Lebench.find "select") with
  | _ -> Alcotest.fail "expected Run_timeout"
  | exception Pv_sim.Machine.Run_timeout { cycles; _ } ->
    check Alcotest.int "watchdog fired at the budget" 2_000 cycles

let test_livelock_fault_hits_watchdog () =
  (* A Livelock-faulted cell is starved of fuel by the supervisor and must
     degrade to a per-cell failure whose reason is the watchdog timeout. *)
  let fault = Result.get_ok (Fault.parse "livelock@0") in
  let config = { Supervise.default with fault } in
  let cells =
    Perf.lebench_cells ~scale:0.2 ~tests:[ Lebench.find "select" ]
      ~variants:[ Schemes.unsafe ] ()
  in
  let sweep = Supervise.run ~config cells in
  match sweep.Supervise.failures with
  | [ f ] ->
    Alcotest.(check bool)
      (Printf.sprintf "reason is a watchdog timeout: %s" f.Supervise.reason)
      true
      (contains ~sub:"watchdog timeout" f.Supervise.reason)
  | _ -> Alcotest.fail "expected exactly one livelocked failure"

(* --- the acceptance scenario at the library level --------------------- *)

let test_perf_sweep_fault_then_resume_converges () =
  (* Fault-injected perf sweep (one crashed cell, one livelocked cell) with a
     checkpoint, then a resume: the resumed figure must be byte-identical to
     an uninterrupted serial run's. *)
  with_checkpoint (fun path ->
      let tests = [ Lebench.find "select" ] in
      let variants = [ Schemes.unsafe; Schemes.fence; Schemes.perspective ] in
      let labels = List.map (fun v -> v.Schemes.label) variants in
      let names = List.map (fun (t : Lebench.test) -> t.Lebench.name) tests in
      let width = List.length variants in
      let cells () = Perf.lebench_cells ~scale:0.2 ~tests ~variants () in
      let render sweep =
        Tab.to_string
          (Perf_report.fig_lebench_partial ~labels (Perf.matrix_of_sweep ~names ~width sweep))
      in
      let fault = Result.get_ok (Fault.parse "livelock@1,crash@2") in
      let faulted =
        Supervise.run
          ~config:{ Supervise.default with jobs = 2; fault; checkpoint = Some path }
          (cells ())
      in
      check Alcotest.int "two cells failed" 2 (Supervise.failed faulted);
      Alcotest.(check bool) "degraded figure marks them" true
        (contains ~sub:"FAILED" (render faulted));
      let resumed =
        Supervise.run
          ~config:{ Supervise.default with checkpoint = Some path; resume = true }
          (cells ())
      in
      check Alcotest.int "only the failed cells re-ran" 2 resumed.Supervise.executed;
      let clean = Supervise.run (cells ()) in
      check Alcotest.string "resumed figure bytes = uninterrupted serial run"
        (render clean) (render resumed))

(* --- telemetry --------------------------------------------------------- *)

module Metrics = Pv_util.Metrics
module Pipeline = Pv_uarch.Pipeline

let get_int snap name =
  match Metrics.find snap name with
  | Some (Metrics.Int v) -> v
  | _ -> Alcotest.fail (Printf.sprintf "missing int metric %S" name)

let test_stall_classes_partition_total () =
  (* The attribution classes must partition the zero-commit cycles exactly:
     every stall cycle lands in exactly one class. *)
  let r = lebench_run ~scale:0.2 Schemes.perspective (Lebench.find "select") in
  let s = r.Perf.metrics in
  let total = get_int s "pipeline.stall.total" in
  let classes =
    [ "fetch"; "rob_full"; "lsq"; "fence_isv"; "fence_dsv"; "fence_baseline"; "dram"; "exec" ]
  in
  let sum =
    List.fold_left (fun acc c -> acc + get_int s ("pipeline.stall." ^ c)) 0 classes
  in
  Alcotest.(check bool) "some stall cycles observed" true (total > 0);
  check Alcotest.int "classes partition the stall cycles" total sum;
  Alcotest.(check bool) "stalls bounded by total cycles" true
    (total <= get_int s "pipeline.cycles")

let test_metrics_export_deterministic_across_jobs () =
  (* The --metrics contract: for a fixed sweep the exported JSON is
     byte-identical for any worker count (no elapsed passed here; in the CLI
     the elapsed_s line is the single strippable wall-clock member). *)
  let cells () =
    Perf.lebench_cells ~scale:0.2 ~tests:[ Lebench.find "select" ]
      ~variants:[ Schemes.unsafe; Schemes.perspective ] ()
  in
  let export jobs =
    let sweep = Supervise.run ~config:{ Supervise.default with jobs } (cells ()) in
    Test_procpool.metrics_json
      [ Supervise.export ~metrics_of:(fun r -> r.Perf.metrics) ~label:"lebench" sweep ]
  in
  let j1 = export 1 and j4 = export 4 in
  check Alcotest.string "-j1 and -j4 exports byte-identical" j1 j4;
  Alcotest.(check bool) "summary histogram present" true
    (contains ~sub:"supervise.cell_cycles" j1);
  Alcotest.(check bool) "stall attribution exported" true
    (contains ~sub:"pipeline.stall.total" j1);
  Alcotest.(check bool) "view-cache counters exported" true
    (contains ~sub:"svcache.dsv.accesses" j1)

let test_render_json_escapes_keys () =
  (* Labels and cell keys are JSON strings, not OCaml literals: a control
     byte renders as \u00XX and UTF-8 passes through raw (OCaml's %S would
     write \001 and \195\169). *)
  let sweep =
    Supervise.run [ Supervise.cell "cell/\x01/\xc3\xa9" (fun ~fuel:_ -> failwith "no value") ]
  in
  let doc = Test_procpool.metrics_json [ Supervise.export ~metrics_of:Fun.id ~label:"s\"w" sweep ] in
  Alcotest.(check bool) "label escaped as JSON" true (contains ~sub:"\"s\\\"w\": {" doc);
  Alcotest.(check bool)
    (Printf.sprintf "cell key escaped as JSON in %s" doc)
    true
    (contains ~sub:"\"cell/\\u0001/\xc3\xa9\": null" doc)

let test_event_trace_ring () =
  let traced = lebench_run ~scale:0.2 ~trace:true Schemes.perspective (Lebench.find "select") in
  let untraced = lebench_run ~scale:0.2 Schemes.perspective (Lebench.find "select") in
  Alcotest.(check bool) "traced run captured events" true (traced.Perf.events <> []);
  check Alcotest.int "untraced run records nothing" 0 (List.length untraced.Perf.events);
  Alcotest.(check bool) "tracing does not perturb the measurement" true
    (traced.Perf.metrics = untraced.Perf.metrics);
  List.iter
    (fun e ->
      let line = Pipeline.event_to_json e in
      Alcotest.(check bool)
        (Printf.sprintf "event line shape: %s" line)
        true
        (String.length line > 0 && line.[0] = '{' && contains ~sub:"\"cycle\":" line))
    traced.Perf.events;
  let cycles = List.map (fun e -> e.Pipeline.ev_cycle) traced.Perf.events in
  Alcotest.(check bool) "events come out oldest-first" true
    (List.sort compare cycles = cycles)

let suite =
  [
    ( "supervise.journal",
      [
        Alcotest.test_case "resume preflight: missing" `Quick test_preflight_missing;
        Alcotest.test_case "resume preflight: zero-byte" `Quick test_preflight_empty;
        Alcotest.test_case "resume preflight: fully torn" `Quick test_preflight_fully_torn;
        Alcotest.test_case "resume preflight: usable" `Quick test_preflight_usable;
      ] );
    ( "supervise.sweeps",
      [
        Alcotest.test_case "clean sweep" `Quick test_sweep_clean;
        Alcotest.test_case "fault degrades one cell" `Quick test_sweep_degrades_on_fault;
        Alcotest.test_case "retry heals flaky cell" `Quick test_sweep_retry_heals_flaky;
        Alcotest.test_case "raising cell fails alone" `Quick test_raising_cell_fails_alone;
        Alcotest.test_case "poison is permanent" `Quick test_poison_is_permanent;
        Alcotest.test_case "mixed plan identical at any -j" `Quick test_mixed_plan_deterministic;
        Alcotest.test_case "duplicate keys rejected" `Quick test_duplicate_keys_rejected;
        Alcotest.test_case "fault indices count executed cells" `Quick
          test_fault_index_counts_executed_cells;
        Alcotest.test_case "workers after a domain raise" `Quick
          test_workers_after_domain_raise;
        Alcotest.test_case "checkpoint/resume round-trip" `Quick test_checkpoint_resume_roundtrip;
        Alcotest.test_case "resume re-runs cells whose inputs changed" `Quick
          test_resume_checks_inputs;
        Alcotest.test_case "resume without journal" `Quick test_resume_without_journal_runs_everything;
      ] );
    ( "supervise.watchdog",
      [
        Alcotest.test_case "starved fuel times out" `Slow test_watchdog_fires_on_starved_fuel;
        Alcotest.test_case "livelock fault hits watchdog" `Slow test_livelock_fault_hits_watchdog;
      ] );
    ( "supervise.telemetry",
      [
        Alcotest.test_case "stall classes partition stall cycles" `Slow
          test_stall_classes_partition_total;
        Alcotest.test_case "metrics export byte-identical across -j" `Slow
          test_metrics_export_deterministic_across_jobs;
        Alcotest.test_case "render_json escapes keys as JSON" `Quick
          test_render_json_escapes_keys;
        Alcotest.test_case "event trace ring" `Slow test_event_trace_ring;
      ] );
    ( "supervise.acceptance",
      [
        Alcotest.test_case "fault, checkpoint, resume, converge" `Slow
          test_perf_sweep_fault_then_resume_converges;
      ] );
  ]
