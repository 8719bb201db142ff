(* Experiment-level sanity: reproduction metrics must land in (or near) the
   paper's reported ranges, at reduced scale so the suite stays fast. *)

module E = Pv_experiments
module Isv_study = E.Isv_study
module Perf = E.Perf
module Schemes = E.Schemes
module Security = E.Security
module Sensitivity = E.Sensitivity
module Supervise = E.Supervise
module Cacti = Pv_hwmodel.Cacti
module Lebench = Pv_workloads.Lebench

let check = Alcotest.check

let study = lazy (Isv_study.build ())

let test_surface_ranges () =
  let rows = Isv_study.surface_rows (Lazy.force study) in
  check Alcotest.int "five workloads" 5 (List.length rows);
  List.iter
    (fun (r : Isv_study.surface_row) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s ISV-S reduction %.1f in [87,95]" r.Isv_study.workload
           r.Isv_study.isv_s_reduction)
        true
        (r.Isv_study.isv_s_reduction >= 87.0 && r.Isv_study.isv_s_reduction <= 95.0);
      Alcotest.(check bool)
        (Printf.sprintf "%s ISV reduction %.1f in [90,97]" r.Isv_study.workload
           r.Isv_study.isv_reduction)
        true
        (r.Isv_study.isv_reduction >= 90.0 && r.Isv_study.isv_reduction <= 97.0);
      Alcotest.(check bool) "dynamic smaller than static" true
        (r.Isv_study.dynamic_size < r.Isv_study.static_size))
    rows

let test_gadget_ranges () =
  List.iter
    (fun (r : Isv_study.gadget_row) ->
      let all3 (a, b, c) p = p a && p b && p c in
      Alcotest.(check bool) "ISV-S blocks 75-95%" true
        (all3 r.Isv_study.isv_s_pct (fun x -> x >= 75.0 && x <= 95.0));
      Alcotest.(check bool) "ISV blocks 82-97%" true
        (all3 r.Isv_study.isv_pct (fun x -> x >= 82.0 && x <= 97.0));
      Alcotest.(check bool) "ISV++ blocks everything" true
        (all3 r.Isv_study.plus_pct (fun x -> x = 100.0)))
    (Isv_study.gadget_rows (Lazy.force study))

(* The values of a supervised sweep that must not have failed. *)
let sweep_values cells =
  List.map
    (fun (key, v) ->
      match v with Some v -> v | None -> Alcotest.failf "cell %s failed" key)
    (Supervise.run cells).Supervise.results

let test_speedup_ranges () =
  let rows = sweep_values (Isv_study.speedup_cells (Lazy.force study)) in
  List.iter
    (fun (r : Isv_study.speedup_row) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s speedup %.2f in [1.1, 2.4]" r.Isv_study.workload
           r.Isv_study.speedup)
        true
        (r.Isv_study.speedup >= 1.1 && r.Isv_study.speedup <= 2.4))
    rows;
  let avg = Pv_util.Stats.mean (List.map (fun (r : Isv_study.speedup_row) -> r.speedup) rows) in
  Alcotest.(check bool)
    (Printf.sprintf "average %.2f near 1.57" avg)
    true
    (avg >= 1.3 && avg <= 1.9)

let test_perf_select_ordering () =
  let test = Lebench.find "select" in
  let scale = 0.5 in
  let unsafe = Test_supervise.lebench_run ~scale Schemes.unsafe test in
  let fence = Test_supervise.lebench_run ~scale Schemes.fence test in
  let persp = Test_supervise.lebench_run ~scale Schemes.perspective test in
  let dom = Test_supervise.lebench_run ~scale Schemes.dom test in
  let ov r = Perf.overhead_pct ~baseline:unsafe r in
  Alcotest.(check bool)
    (Printf.sprintf "FENCE heavy on select (%.0f%%)" (ov fence))
    true
    (ov fence > 100.0);
  Alcotest.(check bool)
    (Printf.sprintf "DOM heavy on select (%.0f%%)" (ov dom))
    true
    (ov dom > 50.0);
  Alcotest.(check bool)
    (Printf.sprintf "Perspective light on select (%.1f%%)" (ov persp))
    true
    (ov persp < 15.0)

let test_perf_fence_accounting () =
  let test = Lebench.find "poll" in
  let run = Test_supervise.lebench_run ~scale:0.5 Schemes.perspective test in
  let isv_k, dsv_k = Perf.fences_per_kiloinstr run in
  Alcotest.(check bool) "DSV fences dominate" true (dsv_k > isv_k);
  Alcotest.(check bool) "some fencing happens" true (dsv_k > 0.5)

let test_perf_throughput_normalization () =
  let app = Pv_workloads.Apps.memcached in
  let unsafe = Perf.run_app ~scale:0.3 Schemes.unsafe app in
  let fence = Perf.run_app ~scale:0.3 Schemes.fence app in
  let nt = Perf.normalized_throughput ~baseline:unsafe fence in
  Alcotest.(check bool)
    (Printf.sprintf "fence throughput below baseline (%.2f)" nt)
    true (nt < 1.0 && nt > 0.5);
  Alcotest.(check bool) "kernel fraction sane" true
    (unsafe.Perf.kernel_cycle_fraction > 0.3 && unsafe.Perf.kernel_cycle_fraction < 0.9)

let test_security_pocs () =
  let pocs = List.concat (sweep_values (Security.run_pocs_cells ())) in
  check Alcotest.int "28 verdicts" 28 (List.length pocs);
  let leaks = List.filter (fun p -> p.Security.correct) pocs in
  (* Exactly: v1 UNSAFE, v2 UNSAFE, v2 DSV-only, rsb UNSAFE. *)
  check Alcotest.int "four leaks" 4 (List.length leaks);
  List.iter
    (fun p ->
      Alcotest.(check bool) "leaks only where expected" true
        (p.Security.scheme = "UNSAFE" || p.Security.scheme = "PERSPECTIVE-ALL"))
    leaks

let test_cacti_calibration () =
  let d = Cacti.characterize Cacti.dsv_cache_config in
  Alcotest.(check bool) "area" true (abs_float (d.Cacti.area_mm2 -. 0.0024) < 0.0002);
  Alcotest.(check bool) "access" true (abs_float (d.Cacti.access_ps -. 114.0) < 3.0);
  Alcotest.(check bool) "energy" true (abs_float (d.Cacti.dyn_energy_pj -. 1.21) < 0.05);
  Alcotest.(check bool) "leakage" true (abs_float (d.Cacti.leak_power_mw -. 0.78) < 0.03);
  let i = Cacti.characterize Cacti.isv_cache_config in
  Alcotest.(check bool) "isv slightly larger" true (i.Cacti.area_mm2 > d.Cacti.area_mm2);
  (* scaling sanity *)
  let big = Cacti.characterize { Cacti.dsv_cache_config with Cacti.entries = 256 } in
  Alcotest.(check bool) "bigger is bigger" true
    (big.Cacti.area_mm2 > d.Cacti.area_mm2 && big.Cacti.access_ps > d.Cacti.access_ps)

let test_fragmentation () =
  let r =
    match
      Sensitivity.fragmentation
        (Supervise.run (Sensitivity.fragmentation_cells ())).Supervise.results
    with
    | Some r -> r
    | None -> Alcotest.fail "a fragmentation cell failed"
  in
  (* The paper's claim is that the secure allocator's memory cost is tiny
     (0.91%); placement noise between the two runs can swing the sign, so we
     assert the magnitude. *)
  Alcotest.(check bool)
    (Printf.sprintf "overhead %.2f%% is small" r.Sensitivity.memory_overhead_pct)
    true
    (abs_float r.Sensitivity.memory_overhead_pct < 3.0);
  Alcotest.(check bool) "utilizations comparable" true
    (abs_float (r.Sensitivity.secure_utilization -. r.Sensitivity.shared_utilization) < 0.05);
  Alcotest.(check bool) "pages were actually used" true (r.Sensitivity.shared_pages > 100)

let test_view_cache_entries_knob () =
  let test = Lebench.find "poll" in
  let small = Test_supervise.lebench_run ~scale:0.3 ~view_cache_entries:8 Schemes.perspective test in
  let big = Test_supervise.lebench_run ~scale:0.3 ~view_cache_entries:512 Schemes.perspective test in
  let rate = function
    | Some r -> r
    | None -> Alcotest.fail "PERSPECTIVE run must access the DSV cache"
  in
  Alcotest.(check bool) "bigger caches hit at least as well" true
    (rate big.Perf.dsv_hit_rate >= rate small.Perf.dsv_hit_rate -. 1e-9);
  Alcotest.(check bool) "metadata pages populated" true (big.Perf.isv_pages_populated > 0);
  Alcotest.(check bool) "metadata bytes = 128 * pages" true
    (big.Perf.isv_metadata_bytes = 128 * big.Perf.isv_pages_populated)

let test_schemes_registry () =
  check Alcotest.int "standard" 5 (List.length Schemes.standard);
  check Alcotest.int "hardware" 4 (List.length Schemes.hardware);
  check Alcotest.int "spot" 2 (List.length Schemes.spot);
  Alcotest.(check bool) "find" true ((Schemes.find "DOM").Schemes.label = "DOM")

let test_static_tables_render () =
  let t1 = E.Static_tables.sim_params () in
  let t2 = E.Static_tables.hw_characterization () in
  let t3 = Security.cve_table () in
  List.iter
    (fun t -> Alcotest.(check bool) "renders" true (String.length (Pv_util.Tab.to_string t) > 100))
    [ t1; t2; t3 ]

(* The knobs a perf cell normalizes away are the ones its variant never
   reads: a variant that is not Perspective gives the same run, down to its
   last metric, whatever blocking mode and view-cache size it is given, and
   every Perspective variant reacts to them.  [run_app] applies the knobs
   as given; LEBench cells run the same simulation code. *)
let test_ignored_knobs_leave_runs_unchanged () =
  let app = Pv_workloads.Apps.memcached in
  List.iter
    (fun (v : Schemes.variant) ->
      let run ?block_unknown ?view_cache_entries () =
        Marshal.to_string (Perf.run_app ~scale:0.1 ?block_unknown ?view_cache_entries v app) []
      in
      let reads_knobs =
        match v.Schemes.scheme with Perspective.Defense.Perspective _ -> true | _ -> false
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: run changes with the knobs iff Perspective" v.Schemes.label)
        reads_knobs
        (run () <> run ~block_unknown:false ~view_cache_entries:32 ()))
    Schemes.everything

(* The view-cache study declares plain perf cells, so the cells it shares
   with a matrix, and its UNSAFE baselines at every capacity, are one
   simulation each within a sweep. *)
let test_studies_dedup_against_matrix () =
  let scale = 0.1 in
  let matrix =
    Perf.lebench_cells ~scale
      ~tests:[ Lebench.find "select" ]
      ~variants:[ Schemes.unsafe; Schemes.perspective ] ()
  in
  let s = Supervise.run (matrix @ Sensitivity.cache_size_cells ~scale ()) in
  check Alcotest.int "cells" 22 (List.length s.Supervise.results);
  (* select UNSAFE at 5 capacities and PERSPECTIVE at 128 alias the matrix;
     redis UNSAFE at 64..512 aliases redis UNSAFE at 32. *)
  check Alcotest.int "deduped" 10 s.Supervise.deduped;
  check Alcotest.int "executed" 12 s.Supervise.executed;
  let value key =
    match List.assoc_opt key s.Supervise.results with
    | Some (Some r) -> r
    | _ -> Alcotest.failf "cell %s missing or failed" key
  in
  List.iter
    (fun (alias, rep) ->
      Alcotest.(check bool) (alias ^ " = " ^ rep) true (value alias = value rep))
    [
      ("cache-size/32/select/UNSAFE", "lebench/select/UNSAFE");
      ("cache-size/512/select/UNSAFE", "lebench/select/UNSAFE");
      ("cache-size/128/select/PERSPECTIVE", "lebench/select/PERSPECTIVE");
      ("cache-size/256/redis/UNSAFE", "cache-size/32/redis/UNSAFE");
    ]

(* reproduce runs all its sweeps against one --checkpoint store.  Keys name
   each sweep's rows; descriptors key the store, which unmarshals an entry
   at the type of the sweep that looks it up. *)
let reproduce_sweeps () =
  let sweeps = Pv_reproduce.Reproduce.sweep_keys ~scale:0.1 in
  check Alcotest.int "seven sweeps" 7 (List.length sweeps);
  sweeps

let test_reproduce_keys_disjoint () =
  let owner = Hashtbl.create 1024 in
  List.iter
    (fun (label, cells) ->
      Alcotest.(check bool) (label ^ " declares cells") true (cells <> []);
      List.iter
        (fun (key, _) ->
          match Hashtbl.find_opt owner key with
          | Some other when other <> label ->
            Alcotest.failf "key %S is in sweeps %s and %s" key other label
          | _ -> Hashtbl.replace owner key label)
        cells)
    (reproduce_sweeps ())

(* A cell without a descriptor would silently never be checkpointed. *)
let test_reproduce_descriptors () =
  List.iter
    (fun (label, cells) ->
      List.iter
        (fun (key, desc) ->
          if desc = None then Alcotest.failf "cell %S of sweep %s has no descriptor" key label)
        cells)
    (reproduce_sweeps ())

(* The family is the descriptor up to its first '|'.  No family is in two
   sweeps, so no entry can be read back at another sweep's type.  The perf
   sweep is one [Perf.run] cell list holding both perf families; every other
   sweep holds one family. *)
let test_reproduce_families_disjoint () =
  let family desc = List.hd (String.split_on_char '|' desc) in
  let owner = Hashtbl.create 16 in
  List.iter
    (fun (label, cells) ->
      let families =
        List.sort_uniq compare (List.filter_map (fun (_, d) -> Option.map family d) cells)
      in
      (match (label, families) with
      | "perf", [ "perf/apps"; "perf/lebench" ] -> ()
      | "perf", fs -> Alcotest.failf "the perf sweep uses families %s" (String.concat ", " fs)
      | _, [ _ ] -> ()
      | _, fs -> Alcotest.failf "sweep %s uses %d descriptor families" label (List.length fs));
      List.iter
        (fun f ->
          match Hashtbl.find_opt owner f with
          | Some other -> Alcotest.failf "family %S is in sweeps %s and %s" f other label
          | None -> Hashtbl.replace owner f label)
        families)
    (reproduce_sweeps ())

(* Run [f] with stdout and stderr sent to files; returns their contents. *)
let captured f =
  let out = Filename.temp_file "pv_out" ".txt" and err = Filename.temp_file "pv_err" ".txt" in
  let redirect fd file =
    let saved = Unix.dup fd in
    let to_file = Unix.openfile file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
    Unix.dup2 to_file fd;
    Unix.close to_file;
    saved
  in
  flush_all ();
  let saved_out = redirect Unix.stdout out and saved_err = redirect Unix.stderr err in
  Fun.protect f ~finally:(fun () ->
      flush_all ();
      Unix.dup2 saved_out Unix.stdout;
      Unix.dup2 saved_err Unix.stderr;
      Unix.close saved_out;
      Unix.close saved_err);
  let read file =
    let s = In_channel.with_open_bin file In_channel.input_all in
    Sys.remove file;
    s
  in
  (read out, read err)

(* Figure 9.3 reads only the app matrix, so alone it declares no LEBench
   cell, and its kernel-time table needs only the app matrix complete. *)
let test_reproduce_fig_9_3_cells () =
  let out, err =
    captured (fun () ->
        ignore
          (Pv_reproduce.Reproduce.run ~config:Supervise.default ~scale:0.05 ~only:"fig-9.3" ()))
  in
  check Alcotest.string "perf sweep line"
    "perf: 44 cells, 0 restored from checkpoint, 0 CACHED, 0 deduped, 44 executed, 0 failed\n"
    err;
  let contains ~sub s =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "kernel-time table printed" true
    (contains ~sub:"Fraction of time spent in the OS" out)

(* A short UNSAFE cell of any row never faults, whatever the machine seed:
   every indirect call its kernel image can reach goes through a table. *)
let unsafe_never_faults_prop =
  let rows =
    List.map (fun t -> `Lebench t) Lebench.tests
    @ List.map (fun a -> `App a) Pv_workloads.Apps.all
  in
  QCheck.Test.make ~name:"short UNSAFE perf cell never faults" ~count:30
    QCheck.(pair (int_range 1 1000) (int_bound (List.length rows - 1)))
    (fun (seed, i) ->
      let scale = 0.05 in
      (match List.nth rows i with
      | `Lebench t -> ignore (Test_supervise.lebench_run ~seed ~scale Schemes.unsafe t)
      | `App a -> ignore (Perf.run_app ~seed ~scale Schemes.unsafe a));
      true)

let suite =
  [
    ( "experiments.isv_study",
      [
        Alcotest.test_case "Table 8.1 ranges" `Slow test_surface_ranges;
        Alcotest.test_case "Table 8.2 ranges" `Slow test_gadget_ranges;
        Alcotest.test_case "Figure 9.1 ranges" `Slow test_speedup_ranges;
      ] );
    ( "experiments.perf",
      [
        Alcotest.test_case "select scheme ordering" `Slow test_perf_select_ordering;
        Alcotest.test_case "fence accounting" `Slow test_perf_fence_accounting;
        Alcotest.test_case "throughput normalization" `Slow test_perf_throughput_normalization;
        QCheck_alcotest.to_alcotest unsafe_never_faults_prop;
      ] );
    ("experiments.security", [ Alcotest.test_case "PoC verdicts" `Slow test_security_pocs ]);
    ( "experiments.analytic",
      [
        Alcotest.test_case "CACTI calibration" `Quick test_cacti_calibration;
        Alcotest.test_case "fragmentation" `Slow test_fragmentation;
        Alcotest.test_case "view-cache size knob" `Slow test_view_cache_entries_knob;
        Alcotest.test_case "ignored knobs leave runs unchanged" `Slow
          test_ignored_knobs_leave_runs_unchanged;
        Alcotest.test_case "studies dedup against the matrix" `Slow
          test_studies_dedup_against_matrix;
        Alcotest.test_case "scheme registry" `Quick test_schemes_registry;
        Alcotest.test_case "static tables render" `Quick test_static_tables_render;
      ] );
    ( "experiments.reproduce",
      [
        Alcotest.test_case "sweep keys disjoint" `Quick test_reproduce_keys_disjoint;
        Alcotest.test_case "every cell has a descriptor" `Quick test_reproduce_descriptors;
        Alcotest.test_case "descriptor families disjoint" `Quick
          test_reproduce_families_disjoint;
        Alcotest.test_case "--only fig-9.3 declares only app cells" `Slow
          test_reproduce_fig_9_3_cells;
      ] );
  ]
