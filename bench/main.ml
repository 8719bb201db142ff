(* The full benchmark harness: regenerates every table and figure of the
   paper's evaluation (Tables 4.1, 7.1, 8.1, 8.2, 9.1, 10.1; Figures 9.1,
   9.2, 9.3; the Chapter 8 PoC study, the leakage-contract matrix, the 9.2 sensitivity analyses and the
   9.3-tail open-loop service curves), then runs Bechamel micro-benchmarks
   of Perspective's core primitives.

   Usage:
     bench/main.exe                 full reproduction (several minutes)
     bench/main.exe --quick         scaled-down run
     bench/main.exe --only fig-9.2  one experiment (see labels below)
     bench/main.exe -j N            run experiment jobs on N domains
     bench/main.exe --cache DIR     serve every supervised section's cells
                                    from a persistent result cache
     bench/main.exe --no-bechamel   skip the microbenchmarks

   An unknown --only label, or a malformed --scale or -j, exits 2.  The
   speed of the reproduction itself is measured end to end by bench/e2e
   (see bench/e2e/README.md).

   Every experiment matrix runs as a supervised sweep (Supervise.run) on one
   config: -j domains and the --cache directory.  Cells are self-contained
   Pv_sim.Machine jobs merged in declaration order, so every table is
   byte-identical for any -j.  A failed cell keeps its row, marked FAILED,
   the tables that need every run are skipped, and the harness exits 1. *)

module E = Pv_experiments
module Tab = Pv_util.Tab

let scale = ref 1.0

let jobs = ref (Pv_util.Pool.default_jobs ())

let only : string option ref = ref None

let run_bechamel = ref true

let csv_dir : string option ref = ref None

let metrics_file : string option ref = ref None

let trace_dir : string option ref = ref None

let cache_dir : string option ref = ref None

let no_cache = ref false

let cache_stats = ref false

(* The one sweep config, built after argument parsing: -j and the
   persistent result cache (a warm run skips every cached cell). *)
let sweep_config () =
  let cache =
    match !cache_dir with
    | Some dir when not !no_cache -> Some (Pv_util.Rescache.open_dir dir)
    | _ -> None
  in
  { E.Supervise.default with jobs = !jobs; cache }

(* Set by any sweep with a failed cell; the harness then exits 1. *)
let degraded = ref false

let supervised config ~label cells =
  let sweep = E.Supervise.run ~config cells in
  E.Supervise.report ~label sweep;
  if E.Supervise.failed sweep > 0 then degraded := true;
  sweep

let maybe_csv name tab =
  match !csv_dir with
  | Some dir -> Tab.save_csv tab (Filename.concat dir (name ^ ".csv"))
  | None -> ()

(* Every section label [--only] accepts; anything else is a usage error. *)
let labels =
  [
    "table-4.1"; "table-7.1"; "table-8.1"; "table-8.2"; "table-9.1"; "table-10.1";
    "fig-9.1"; "fig-9.2"; "fig-9.3"; "fig-9.3-tail"; "poc-attacks"; "contracts";
    "comparisons"; "sensitivity";
  ]

let want label = match !only with None -> true | Some l -> l = label

let section label title f =
  if want label then begin
    Printf.printf "\n###### [%s] %s ######\n\n%!" label title;
    f ()
  end

(* ------------------------------------------------------------------ *)
(* Experiment sections                                                  *)
(* ------------------------------------------------------------------ *)

let static_sections () =
  section "table-4.1" "Taxonomy of kernel CVEs" (fun () ->
      Tab.print (E.Security.cve_table ()));
  section "table-7.1" "Simulation parameters" (fun () ->
      Tab.print (E.Static_tables.sim_params ()));
  section "table-9.1" "View-cache hardware characterization" (fun () ->
      Tab.print (E.Static_tables.hw_characterization ());
      Tab.print (E.Static_tables.hw_sensitivity ()))

let isv_sections config =
  if want "table-8.1" || want "table-8.2" || want "fig-9.1" then begin
    let study = E.Isv_study.build () in
    section "table-8.1" "Attack surface reduction" (fun () ->
        Tab.print (E.Isv_study.surface_table study));
    section "table-8.2" "Gadget reduction" (fun () ->
        Tab.print (E.Isv_study.gadget_table study));
    section "fig-9.1" "Kasper discovery-rate speedup" (fun () ->
        let sweep = supervised config ~label:"speedup" (E.Isv_study.speedup_cells study) in
        Tab.print (E.Isv_study.speedup_table_rows sweep.E.Supervise.results))
  end

let poc_section config =
  section "poc-attacks" "Chapter 8 proof-of-concept attacks" (fun () ->
      let sweep = supervised config ~label:"pocs" (E.Security.run_pocs_cells ()) in
      Tab.print (E.Security.poc_table_partial sweep.E.Supervise.results);
      (* 5.4: swift gadget patching on a live system *)
      let d = Pv_attacks.Spectre_v2.run_patch_demo () in
      let verdict (o : Pv_attacks.Spectre_v2.outcome) =
        if o.Pv_attacks.Spectre_v2.success then "SECRET LEAKED" else "blocked"
      in
      Printf.printf
        "Swift patching (5.4): passive v2 with the gadget wrongly inside the\n\
        \ victim's ISV: %s; after excluding the function from the live view\n\
        \ (no kernel patch): %s\n\n"
        (verdict d.Pv_attacks.Spectre_v2.before_patch)
        (verdict d.Pv_attacks.Spectre_v2.after_patch);
      (* Table 4.1 gadget shapes as active-attack PoCs (8.1) *)
      let vtab =
        Tab.create ~title:"Active PoCs from the Table 4.1 gadget shapes"
          ~header:
            [ ("Gadget", Tab.Left); ("UNSAFE", Tab.Left); ("PERSPECTIVE", Tab.Left) ]
      in
      let v (o : Pv_attacks.Spectre_v1.outcome) =
        if o.Pv_attacks.Spectre_v1.success then "SECRET LEAKED" else "blocked"
      in
      List.iter
        (fun variant ->
          let u = Pv_attacks.Spectre_v1.run ~variant ~scheme:Perspective.Defense.Unsafe () in
          let p =
            Pv_attacks.Spectre_v1.run ~variant
              ~scheme:(Perspective.Defense.Perspective Perspective.Isv.Dynamic) ()
          in
          Tab.row vtab [ Pv_attacks.Spectre_v1.variant_name variant; v u; v p ])
        [
          Pv_attacks.Spectre_v1.Array_index;
          Pv_attacks.Spectre_v1.Pointer_arith;
          Pv_attacks.Spectre_v1.Type_confusion;
        ];
      Tab.print vtab)

let contracts_section config =
  section "contracts" "Empirical leakage-contract matrix" (fun () ->
      let module C = Pv_contracts.Contracts in
      let sweep = supervised config ~label:"contracts" (C.cells ()) in
      let tab = C.matrix_table sweep.E.Supervise.results in
      Tab.print tab;
      maybe_csv "contracts" tab)

let perf_sections config =
  let needed =
    List.exists want
      [ "fig-9.2"; "fig-9.3"; "table-10.1"; "comparisons"; "sensitivity" ]
  in
  if needed then begin
    let variants = E.Schemes.standard @ E.Schemes.hardware @ E.Schemes.spot in
    let labels = List.map (fun v -> v.E.Schemes.label) variants in
    (* stderr, so stdout stays byte-identical for every -j value *)
    Printf.eprintf "\n(running the cycle-level performance matrices, scale=%.2f, -j %d...)\n%!"
      !scale !jobs;
    let exports = ref [] in
    let matrix ~label ~names cells =
      let t0 = Unix.gettimeofday () in
      let sweep = supervised config ~label cells in
      let elapsed = Unix.gettimeofday () -. t0 in
      exports :=
        E.Supervise.export ~elapsed ~metrics_of:(fun r -> r.E.Perf.metrics) ~label sweep
        :: !exports;
      E.Perf.matrix_of_sweep ~names ~width:(List.length variants) sweep
    in
    let micro =
      matrix ~label:"lebench"
        ~names:(List.map (fun t -> t.Pv_workloads.Lebench.name) Pv_workloads.Lebench.tests)
        (E.Perf.lebench_cells ~scale:!scale ~variants ())
    in
    let macro =
      matrix ~label:"apps"
        ~names:(List.map (fun a -> a.Pv_workloads.Apps.name) Pv_workloads.Apps.all)
        (E.Perf.apps_cells ~scale:!scale ~variants ())
    in
    Option.iter (fun file -> E.Supervise.write_json ~file (List.rev !exports)) !metrics_file;
    (match !trace_dir with
    | Some dir ->
      (* The matrices run untraced; re-run one representative traced cell so
         the harness still exercises the JSONL dump end to end. *)
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let r =
        E.Perf.run_lebench ~scale:(Float.min !scale 0.3) ~trace:true
          E.Schemes.perspective
          (Pv_workloads.Lebench.find "poll")
      in
      let oc = open_out (Filename.concat dir "lebench_poll_PERSPECTIVE.jsonl") in
      List.iter
        (fun ev ->
          output_string oc (Pv_uarch.Pipeline.event_to_json ev);
          output_char oc '\n')
        r.E.Perf.events;
      close_out oc
    | None -> ());
    (* Tables that read every run render only from complete matrices. *)
    let full f =
      match (E.Perf.complete_matrix micro, E.Perf.complete_matrix macro) with
      | Some micro, Some macro -> f ~micro ~macro
      | _ -> print_endline "(skipped: the performance matrices have FAILED cells)"
    in
    section "fig-9.2" "LEBench normalized latency" (fun () ->
        let tab = E.Perf_report.fig_lebench_partial ~labels micro in
        Tab.print tab;
        maybe_csv "fig-9.2" tab);
    section "fig-9.3" "Datacenter throughput" (fun () ->
        let tab = E.Perf_report.fig_apps_partial ~labels macro in
        Tab.print tab;
        maybe_csv "fig-9.3" tab;
        full (fun ~micro:_ ~macro -> Tab.print (E.Perf_report.kernel_time_table macro)));
    section "table-10.1" "Fence breakdown (ISV vs DSV)" (fun () ->
        full (fun ~micro ~macro ->
            Tab.print (E.Perf_report.fence_breakdown (micro @ macro));
            Tab.print (E.Perf_report.stall_breakdown (micro @ macro))));
    section "comparisons" "Spot and hardware mitigation comparison" (fun () ->
        full (fun ~micro ~macro -> Tab.print (E.Perf_report.comparison_summary ~micro ~macro)));
    section "sensitivity" "9.2 sensitivity analyses" (fun () ->
        full (fun ~micro ~macro -> Tab.print (E.Sensitivity.hit_rates ~micro ~macro));
        let tab, _ =
          E.Sensitivity.unknown_allocations ~scale:(Float.min !scale 0.5) ~jobs:!jobs ()
        in
        Tab.print tab;
        Tab.print
          (E.Sensitivity.fragmentation_table (E.Sensitivity.fragmentation ~jobs:!jobs ()));
        full (fun ~micro:_ ~macro ->
            Tab.print (E.Sensitivity.domain_reassignment ~macro);
            Tab.print (E.Sensitivity.isv_metadata ~macro));
        let sweep =
          supervised config ~label:"cache-size"
            (E.Sensitivity.cache_size_cells ~scale:(Float.min !scale 0.6) ())
        in
        Tab.print (E.Sensitivity.cache_size_table sweep.E.Supervise.results))
  end

let service_section config =
  section "fig-9.3-tail" "Open-loop load-latency curves" (fun () ->
      let requests = max 500 (int_of_float (5000.0 *. Float.min 1.0 !scale)) in
      let points = if !scale < 1.0 then 3 else 4 in
      let variants = E.Schemes.standard @ E.Schemes.hardware in
      let labels = List.map (fun v -> v.E.Schemes.label) variants in
      let apps = Pv_workloads.Apps.all in
      let loads = E.Loadsweep.default_loads in
      (* stderr, so stdout stays byte-identical for every -j value *)
      Printf.eprintf "\n(calibrating service-time cost models, -j %d...)\n%!" !jobs;
      let outcome = E.Loadsweep.run ~config ~points ~requests ~loads ~apps ~variants () in
      let tab =
        E.Loadsweep.table ~requests ~apps ~labels ~loads outcome.E.Loadsweep.point_sweep
      in
      Tab.print tab;
      maybe_csv "fig-9.3-tail" tab;
      Tab.print (E.Loadsweep.knee_table ~apps ~labels ~loads outcome.E.Loadsweep.point_sweep);
      E.Supervise.report ~label:"service-cal" outcome.E.Loadsweep.cal_sweep;
      E.Supervise.report ~label:"service" outcome.E.Loadsweep.point_sweep;
      if E.Loadsweep.exit_code outcome <> 0 then degraded := true)

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of the core primitives                      *)
(* ------------------------------------------------------------------ *)

let bechamel_suite () =
  let open Bechamel in
  let open Toolkit in
  (* DSV/ISV cache lookup *)
  let svcache = Perspective.Svcache.create ~name:"bench" () in
  for i = 0 to 127 do
    Perspective.Svcache.install svcache ~asid:1 i (i mod 2 = 0)
  done;
  let t_svcache =
    Test.make ~name:"svcache-lookup"
      (Staged.stage (fun () -> ignore (Perspective.Svcache.lookup svcache ~asid:1 64)))
  in
  (* DSVMT walk *)
  let dsvmt = Perspective.Dsvmt.create ~ctx:1 ~oracle:(fun ~page -> page land 1 = 0) in
  let page = ref 0 in
  let t_dsvmt =
    Test.make ~name:"dsvmt-walk"
      (Staged.stage (fun () ->
           page := (!page + 97) land 0xFFFF;
           ignore (Perspective.Dsvmt.walk dsvmt ~page:!page)))
  in
  (* secure slab kmalloc/kfree *)
  let phys = Pv_kernel.Physmem.create ~frames:4096 in
  let slab = Pv_kernel.Slab.create ~mode:Pv_kernel.Slab.Secure phys in
  let t_slab =
    Test.make ~name:"secure-slab-kmalloc-kfree"
      (Staged.stage (fun () ->
           match Pv_kernel.Slab.kmalloc slab ~owner:(Pv_kernel.Physmem.Cgroup 1) ~size:64 with
           | Some va -> Pv_kernel.Slab.kfree slab va
           | None -> ()))
  in
  (* buddy allocator *)
  let t_buddy =
    Test.make ~name:"buddy-alloc-free"
      (Staged.stage (fun () ->
           match Pv_kernel.Physmem.alloc_pages phys ~order:0 Pv_kernel.Physmem.Kernel with
           | Some f -> Pv_kernel.Physmem.free_pages phys ~frame:f ~order:0
           | None -> ()))
  in
  (* pipeline throughput: one complete run of a 64-iteration loop *)
  let bench_prog =
    let a = Pv_isa.Asm.create () in
    let loop = Pv_isa.Asm.fresh_label a in
    let done_ = Pv_isa.Asm.fresh_label a in
    Pv_isa.Asm.li a 1 0;
    Pv_isa.Asm.li a 2 64;
    Pv_isa.Asm.li a 3 Pv_isa.Layout.user_data_base;
    Pv_isa.Asm.place a loop;
    Pv_isa.Asm.branch a Pv_isa.Insn.Ge 1 2 done_;
    Pv_isa.Asm.load a 4 3 0;
    Pv_isa.Asm.alui a Pv_isa.Insn.Add 1 1 1;
    Pv_isa.Asm.jump a loop;
    Pv_isa.Asm.place a done_;
    Pv_isa.Asm.halt a;
    Pv_isa.Program.of_funcs
      [
        {
          Pv_isa.Program.fid = 0;
          name = "bench";
          space = Pv_isa.Layout.User;
          body = Pv_isa.Asm.finish a;
        };
      ]
  in
  let t_pipeline =
    Test.make ~name:"pipeline-64-iter-loop"
      (Staged.stage (fun () ->
           let ms = Pv_uarch.Memsys.create (Pv_isa.Mem.create ()) in
           let pipe = Pv_uarch.Pipeline.create ms bench_prog in
           ignore (Pv_uarch.Pipeline.run pipe ~asid:1 ~start:0)))
  in
  let tests =
    Test.make_grouped ~name:"perspective-primitives"
      [ t_svcache; t_dsvmt; t_slab; t_buddy; t_pipeline ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Printf.printf "\n###### [bechamel] Core primitive timings ######\n\n%!";
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> Printf.printf "  %-50s %12.1f ns/run\n" name est
      | Some _ | None -> Printf.printf "  %-50s (no estimate)\n" name)
    results

(* ------------------------------------------------------------------ *)

let () =
  let usage_error fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 2) fmt in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      scale := 0.3;
      parse rest
    | "--scale" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s > 0.0 && Float.is_finite s -> scale := s
      | _ -> usage_error "--scale: expected a positive number, got %S" v);
      parse rest
    | "--only" :: l :: rest ->
      if not (List.mem l labels) then
        usage_error "--only: unknown label %S (valid: %s)" l (String.concat ", " labels);
      only := Some l;
      parse rest
    | ("-j" | "--jobs") :: n :: rest ->
      (match int_of_string_opt n with
      | Some n when n >= 1 -> jobs := n
      | _ -> usage_error "-j: expected a positive number of workers, got %S" n);
      parse rest
    | "--no-bechamel" :: rest ->
      run_bechamel := false;
      parse rest
    | "--csv" :: dir :: rest ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      csv_dir := Some dir;
      parse rest
    | "--metrics" :: file :: rest ->
      metrics_file := Some file;
      parse rest
    | "--trace-dir" :: dir :: rest ->
      trace_dir := Some dir;
      parse rest
    | "--cache" :: dir :: rest ->
      cache_dir := Some dir;
      parse rest
    | "--no-cache" :: rest ->
      no_cache := true;
      parse rest
    | "--cache-stats" :: rest ->
      cache_stats := true;
      parse rest
    | arg :: _ ->
      usage_error
        "unknown argument %s\n\
         usage: main.exe [--quick] [--scale F] [--only LABEL] [-j N] [--no-bechamel] [--csv DIR]\n\
        \       [--metrics FILE.json] [--trace-dir DIR] [--cache DIR] [--no-cache] [--cache-stats]\n\
         labels: %s"
        arg (String.concat " " labels)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let config = sweep_config () in
  Printf.printf "Perspective reproduction benchmark harness\n";
  Printf.printf "==========================================\n";
  static_sections ();
  isv_sections config;
  poc_section config;
  contracts_section config;
  perf_sections config;
  service_section config;
  if !run_bechamel && !only = None then bechamel_suite ();
  if !cache_stats then Option.iter Pv_util.Rescache.report config.E.Supervise.cache;
  Printf.printf "\nDone.\n";
  if !degraded then exit 1
