(* The supervision layer: checkpoint journals, fault-degraded sweeps,
   resume convergence, and the cycle-fuel watchdog. *)

module Fault = Pv_util.Fault
module Journal = Pv_util.Journal
module Supervise = Pv_experiments.Supervise
module Perf = Pv_experiments.Perf
module Perf_report = Pv_experiments.Perf_report
module Schemes = Pv_experiments.Schemes
module Tab = Pv_util.Tab
module Lebench = Pv_workloads.Lebench

let check = Alcotest.check

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let temp_journal () =
  let path = Filename.temp_file "pv_supervise" ".journal" in
  Sys.remove path;
  (* Journal.open_writer appends; start from absence like a fresh CLI run. *)
  path

let with_journal f =
  let path = temp_journal () in
  let rm p = if Sys.file_exists p then Sys.remove p in
  Fun.protect
    ~finally:(fun () ->
      rm path;
      (* recovery quarantines torn bytes next to the journal *)
      rm (path ^ ".quarantine"))
    (fun () -> f path)

let square_cells n =
  List.init n (fun i -> Supervise.cell (Printf.sprintf "sq/%d" i) (fun ~fuel:_ -> i * i))

(* --- journal ---------------------------------------------------------- *)

let test_journal_roundtrip () =
  with_journal (fun path ->
      let w = Journal.open_writer path in
      Journal.append w ~key:"a" 1;
      Journal.append w ~key:"b" 2;
      Journal.append w ~key:"a" 3 (* last write wins *);
      Journal.close w;
      check
        Alcotest.(list (pair string int))
        "records in append order"
        [ ("a", 1); ("b", 2); ("a", 3) ]
        (Journal.load path);
      let tbl = Journal.load_table path in
      check Alcotest.(option int) "last wins" (Some 3) (Hashtbl.find_opt tbl "a");
      check Alcotest.(option int) "b intact" (Some 2) (Hashtbl.find_opt tbl "b"))

let test_journal_torn_tail () =
  (* A run killed mid-append leaves a truncated record; loading must keep the
     valid prefix and drop the tail. *)
  with_journal (fun path ->
      let w = Journal.open_writer path in
      Journal.append w ~key:"done" 42;
      Journal.close w;
      let full = In_channel.with_open_bin path In_channel.input_all in
      let ch = Out_channel.open_gen [ Open_append; Open_binary ] 0o644 path in
      (* half of a second record *)
      Out_channel.output_string ch (String.sub full 0 (String.length full / 2));
      Out_channel.close ch;
      check
        Alcotest.(list (pair string int))
        "valid prefix survives" [ ("done", 42) ] (Journal.load path))

let test_journal_resume_after_tear () =
  (* The resume-after-tear bug: open_writer used to append blindly after the
     torn bytes, desyncing the Marshal stream so every post-resume record was
     unreadable.  It must truncate to the clean prefix first, keeping the
     pre-kill records AND the post-resume appends loadable. *)
  with_journal (fun path ->
      let w = Journal.open_writer path in
      Journal.append w ~key:"a" 1;
      Journal.append w ~key:"b" 2;
      Journal.close w;
      (* simulate a kill mid-append: a few bytes of a torn third record
         (shorter than a Marshal header, so it can never parse) *)
      let full = In_channel.with_open_bin path In_channel.input_all in
      let ch = Out_channel.open_gen [ Open_append; Open_binary ] 0o644 path in
      Out_channel.output_string ch (String.sub full 0 7);
      Out_channel.close ch;
      (* resume: the writer truncates the tear, then appends cleanly *)
      let w = Journal.open_writer path in
      Journal.append w ~key:"c" 3;
      Journal.close w;
      check
        Alcotest.(list (pair string int))
        "pre-kill and post-resume records all readable"
        [ ("a", 1); ("b", 2); ("c", 3) ]
        (Journal.load path);
      (* a second resume on the now-clean file is a no-op truncation *)
      let w = Journal.open_writer path in
      Journal.append w ~key:"d" 4;
      Journal.close w;
      check
        Alcotest.(list (pair string int))
        "repeated resumes keep appending"
        [ ("a", 1); ("b", 2); ("c", 3); ("d", 4) ]
        (Journal.load path))

let test_journal_missing_file () =
  check Alcotest.int "missing journal is empty" 0
    (Hashtbl.length (Journal.load_table "/nonexistent/pv.journal"))

(* --- resume preflight (the CLI's --resume diagnostic) ------------------ *)

let test_resume_status_missing () =
  Alcotest.(check bool) "absent file is Missing" true
    (Journal.resume_status "/nonexistent/pv.journal" = Journal.Missing)

let test_resume_status_empty_file () =
  with_journal (fun path ->
      Out_channel.with_open_bin path (fun _ -> ());
      match Journal.resume_status path with
      | Journal.Unusable why ->
        Alcotest.(check bool)
          (Printf.sprintf "diagnostic names the emptiness: %s" why)
          true
          (contains ~sub:"empty" why)
      | _ -> Alcotest.fail "zero-byte checkpoint must be Unusable")

let test_resume_status_fully_torn () =
  (* A journal killed during its very first append holds only torn bytes:
     no complete record to resume from, and the preflight must say so
     rather than silently re-running everything. *)
  with_journal (fun path ->
      let w = Journal.open_writer path in
      Journal.append w ~key:"a" 1;
      Journal.close w;
      let full = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun ch ->
          Out_channel.output_string ch (String.sub full 0 7));
      match Journal.resume_status path with
      | Journal.Unusable why ->
        Alcotest.(check bool)
          (Printf.sprintf "diagnostic names the tear: %s" why)
          true
          (contains ~sub:"no complete record" why)
      | _ -> Alcotest.fail "fully-torn checkpoint must be Unusable")

let test_resume_status_usable () =
  with_journal (fun path ->
      let w = Journal.open_writer path in
      Journal.append w ~key:"a" 1;
      Journal.append w ~key:"b" 2;
      Journal.append w ~key:"a" 3 (* re-run after an earlier resume *);
      Journal.close w;
      Alcotest.(check bool) "counts records and distinct keys" true
        (Journal.resume_status path = Journal.Usable { records = 3; distinct = 2 }))

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
  let fault = Fault.plan [ { Fault.index = 2; kind = Fault.Crash; first_attempts = Fault.always } ] in
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
  let fault = Fault.plan [ { Fault.index = 1; kind = Fault.Crash; first_attempts = 1 } ] in
  let config = { Supervise.default with fault; retries = 1 } in
  let sweep = Supervise.run ~config (square_cells 3) in
  check Alcotest.int "no failures after retry" 0 (Supervise.failed sweep);
  check Alcotest.(option (option int)) "flaky cell healed" (Some (Some 1))
    (List.assoc_opt "sq/1" sweep.Supervise.results)

let test_duplicate_keys_rejected () =
  let cells = [ Supervise.cell "dup" (fun ~fuel:_ -> 0); Supervise.cell "dup" (fun ~fuel:_ -> 1) ] in
  Alcotest.check_raises "duplicate keys" (Invalid_argument "Supervise.run: duplicate cell keys")
    (fun () -> ignore (Supervise.run cells))

let test_workers_after_domain_raise () =
  (* OCaml 5 refuses to fork once a domain has been spawned: a
     multi-process sweep then raises instead of running in-process. *)
  Pv_util.Pool.with_pool ~jobs:2 (fun _ -> ());
  match Supervise.run ~config:{ Supervise.default with workers = 2 } (square_cells 3) with
  | _ -> Alcotest.fail "workers = 2 must not run in-process"
  | exception Failure _ -> ()

let test_checkpoint_resume_roundtrip () =
  with_journal (fun path ->
      (* First run: cell 3 crashes persistently; the other five checkpoint. *)
      let fault = Fault.plan [ { Fault.index = 3; kind = Fault.Crash; first_attempts = Fault.always } ] in
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

let test_resume_without_journal_runs_everything () =
  let config = { Supervise.default with checkpoint = None; resume = true } in
  let sweep = Supervise.run ~config (square_cells 4) in
  check Alcotest.int "nothing restored" 0 sweep.Supervise.restored;
  check Alcotest.int "everything executed" 4 sweep.Supervise.executed

(* --- the cycle-fuel watchdog ------------------------------------------ *)

let test_watchdog_fires_on_starved_fuel () =
  (* A real (scaled-down) simulation with a tiny cycle budget must end in
     the structured timeout, not a hang or an unstructured error. *)
  match Perf.run_lebench ~scale:0.2 ~fuel:2_000 Schemes.perspective (Lebench.find "select") with
  | _ -> Alcotest.fail "expected Run_timeout"
  | exception Pv_sim.Machine.Run_timeout { cycles; _ } ->
    check Alcotest.int "watchdog fired at the budget" 2_000 cycles

let test_livelock_fault_hits_watchdog () =
  (* A Livelock-faulted cell is starved of fuel by the supervisor and must
     degrade to a per-cell failure whose reason is the watchdog timeout. *)
  let fault = Fault.plan [ { Fault.index = 0; kind = Fault.Livelock; first_attempts = Fault.always } ] in
  let config = { Supervise.default with fault; livelock_fuel = 2_000 } in
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
  with_journal (fun path ->
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
      let fault =
        Fault.plan
          [
            { Fault.index = 1; kind = Fault.Livelock; first_attempts = Fault.always };
            { Fault.index = 2; kind = Fault.Crash; first_attempts = Fault.always };
          ]
      in
      let faulted =
        Supervise.run
          ~config:{ Supervise.default with jobs = 2; fault; checkpoint = Some path; livelock_fuel = 2_000 }
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
  let r = Perf.run_lebench ~scale:0.2 Schemes.perspective (Lebench.find "select") in
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
    Supervise.render_json
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
  let doc = Supervise.render_json [ Supervise.export ~metrics_of:Fun.id ~label:"s\"w" sweep ] in
  Alcotest.(check bool) "label escaped as JSON" true (contains ~sub:"\"s\\\"w\": {" doc);
  Alcotest.(check bool)
    (Printf.sprintf "cell key escaped as JSON in %s" doc)
    true
    (contains ~sub:"\"cell/\\u0001/\xc3\xa9\": null" doc)

let test_event_trace_ring () =
  let traced = Perf.run_lebench ~scale:0.2 ~trace:true Schemes.perspective (Lebench.find "select") in
  let untraced = Perf.run_lebench ~scale:0.2 Schemes.perspective (Lebench.find "select") in
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
        Alcotest.test_case "append/load round-trip" `Quick test_journal_roundtrip;
        Alcotest.test_case "torn tail dropped" `Quick test_journal_torn_tail;
        Alcotest.test_case "resume-after-tear truncates then appends" `Quick
          test_journal_resume_after_tear;
        Alcotest.test_case "missing file" `Quick test_journal_missing_file;
        Alcotest.test_case "resume preflight: missing" `Quick test_resume_status_missing;
        Alcotest.test_case "resume preflight: zero-byte" `Quick test_resume_status_empty_file;
        Alcotest.test_case "resume preflight: fully torn" `Quick test_resume_status_fully_torn;
        Alcotest.test_case "resume preflight: usable" `Quick test_resume_status_usable;
      ] );
    ( "supervise.sweeps",
      [
        Alcotest.test_case "clean sweep" `Quick test_sweep_clean;
        Alcotest.test_case "fault degrades one cell" `Quick test_sweep_degrades_on_fault;
        Alcotest.test_case "retry heals flaky cell" `Quick test_sweep_retry_heals_flaky;
        Alcotest.test_case "duplicate keys rejected" `Quick test_duplicate_keys_rejected;
        Alcotest.test_case "workers after a domain raise" `Quick
          test_workers_after_domain_raise;
        Alcotest.test_case "checkpoint/resume round-trip" `Quick test_checkpoint_resume_roundtrip;
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
