module E = Pv_experiments
module Supervise = E.Supervise
module Tab = Pv_util.Tab
module Lebench = Pv_workloads.Lebench
module Apps = Pv_workloads.Apps
module C = Pv_contracts.Contracts
module V1 = Pv_attacks.Spectre_v1

type t = {
  config : Supervise.config;
  only : string option;  (* reproduce --only; [None] prints every section *)
  headers : bool;  (* reproduce frames each section with a header *)
  mutable failed : bool;
}

let exit_code t = if t.failed then 1 else 0

let sections f config =
  let t = { config; only = None; headers = false; failed = false } in
  f t;
  exit_code t

let wants t label = match t.only with None -> true | Some l -> l = label

let section t label title f =
  if wants t label then begin
    if t.headers then Printf.printf "\n###### [%s] %s ######\n\n%!" label title;
    f ()
  end

(* One supervised sweep, reported on stderr; a failed cell fails the run. *)
let sweep t ~label cells =
  let s = Supervise.run ~config:t.config cells in
  Supervise.report ~label s;
  if Supervise.failed s > 0 then t.failed <- true;
  s

(* ------------------------------------------------------------------ *)
(* Sections shared with the per-experiment subcommands                  *)
(* ------------------------------------------------------------------ *)

let surface t ~seed =
  if List.exists (wants t) [ "table-8.1"; "table-8.2"; "fig-9.1" ] then begin
    let study = E.Isv_study.build ~seed () in
    section t "table-8.1" "Attack surface reduction" (fun () ->
        Tab.print (E.Isv_study.surface_table study));
    section t "table-8.2" "Gadget reduction" (fun () ->
        Tab.print (E.Isv_study.gadget_table study));
    section t "fig-9.1" "Kasper discovery-rate speedup" (fun () ->
        let s = sweep t ~label:"speedup" (E.Isv_study.speedup_cells ~seed study) in
        Tab.print (E.Isv_study.speedup_table_rows s.results))
  end

let pocs t cells =
  let s = sweep t ~label:"pocs" cells in
  Tab.print (E.Security.poc_table_partial s.results)

let contracts t ?attacks ?schemes ?csv cells =
  let s = sweep t ~label:"contracts" cells in
  let tab = C.matrix_table ?attacks ?schemes s.results in
  Tab.print tab;
  Option.iter (Tab.save_csv tab) csv

let cache_size t ~seed ~scale =
  let s = sweep t ~label:"cache-size" (E.Sensitivity.cache_size_cells ~seed ~scale ()) in
  Tab.print (E.Sensitivity.cache_size_table s.results)

let write_traces ~dir (s : E.Perf.run Supervise.sweep) =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  List.iter
    (fun (key, run) ->
      match run with
      | None -> ()
      | Some r ->
        let file =
          Filename.concat dir
            (String.map (fun c -> if c = '/' then '_' else c) key ^ ".jsonl")
        in
        let oc = open_out file in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            List.iter
              (fun ev ->
                output_string oc (Pv_uarch.Pipeline.event_to_json ev);
                output_char oc '\n')
              r.E.Perf.events))
    s.results

let perf_matrices t ~seed ~scale ~variants ~tests ~apps ?(extra = []) ?metrics ?trace_dir ()
    =
  let trace = trace_dir <> None in
  let width = List.length variants in
  let micro = E.Perf.lebench_cells ~seed ~scale ~trace ~tests ~variants () in
  let macro = E.Perf.apps_cells ~seed ~scale ~trace ~apps ~variants () in
  let t0 = Unix.gettimeofday () in
  let s = sweep t ~label:"perf" (micro @ macro @ extra) in
  let elapsed = Unix.gettimeofday () -. t0 in
  let exports = ref [] in
  (* Each matrix as a sweep of its own, cut from the perf sweep by position,
     for its export, traces and rows. *)
  let matrix ~label ~names ~first cells =
    if names = [] then []
    else begin
      let last = first + List.length cells in
      let s =
        { s with results = List.filteri (fun i _ -> i >= first && i < last) s.results }
      in
      exports :=
        Supervise.export ~elapsed ~metrics_of:(fun r -> r.E.Perf.metrics) ~label s
        :: !exports;
      Option.iter (fun dir -> write_traces ~dir s) trace_dir;
      E.Perf.matrix_of_sweep ~names ~width s
    end
  in
  let micro_rows =
    matrix ~label:"lebench"
      ~names:(List.map (fun (x : Lebench.test) -> x.name) tests)
      ~first:0 micro
  in
  let macro_rows =
    matrix ~label:"apps"
      ~names:(List.map (fun (a : Apps.app) -> a.name) apps)
      ~first:(List.length micro) macro
  in
  Option.iter (fun file -> Supervise.write_json ~file (List.rev !exports)) metrics;
  (micro_rows, macro_rows, s.results)

let service t ~seed ~requests ?points ~server ~loads ~apps ~variants ?csv ?metrics () =
  let labels = List.map (fun v -> v.E.Schemes.label) variants in
  let t0 = Unix.gettimeofday () in
  let o =
    E.Loadsweep.run ~config:t.config ~seed ?points ~requests ~server ~loads ~apps ~variants ()
  in
  let tab = E.Loadsweep.table ~server ~requests ~apps ~labels ~loads o.point_sweep in
  Tab.print tab;
  Option.iter (Tab.save_csv tab) csv;
  Tab.print (E.Loadsweep.knee_table ~apps ~labels ~loads o.point_sweep);
  Supervise.report ~label:"service-cal" o.cal_sweep;
  Supervise.report ~label:"service" o.point_sweep;
  Option.iter
    (fun file ->
      let elapsed = Unix.gettimeofday () -. t0 in
      Supervise.write_json ~file (E.Loadsweep.exports ~elapsed o))
    metrics;
  if E.Loadsweep.exit_code o <> 0 then t.failed <- true

(* ------------------------------------------------------------------ *)
(* The full reproduction                                                *)
(* ------------------------------------------------------------------ *)

let labels =
  [
    "table-4.1"; "table-7.1"; "table-8.1"; "table-8.2"; "table-9.1"; "table-10.1";
    "fig-9.1"; "fig-9.2"; "fig-9.3"; "fig-9.3-tail"; "poc-attacks"; "contracts";
    "comparisons"; "sensitivity";
  ]

(* The inputs reproduce gives each sweep: seed 7 for the PoCs and
   contracts, 42 (every default) elsewhere, and sizes derived from the
   scale. *)
let perf_variants = E.Schemes.standard @ E.Schemes.hardware @ E.Schemes.spot

let service_variants = E.Schemes.standard @ E.Schemes.hardware

let unknown_scale scale = Float.min scale 0.5

let cache_size_scale scale = Float.min scale 0.6

let service_requests scale = max 500 (int_of_float (5000.0 *. Float.min 1.0 scale))

let service_points scale = if scale < 1.0 then 3 else 4

(* The two §9.2 studies that run in the perf sweep, at their capped
   scales. *)
let sensitivity_cells scale =
  E.Sensitivity.unknown_allocation_cells ~scale:(unknown_scale scale) ()
  @ E.Sensitivity.cache_size_cells ~scale:(cache_size_scale scale) ()

let sweep_keys ~scale =
  let keys cells = List.map (fun (c : _ Supervise.cell) -> (c.key, c.cache)) cells in
  let points = service_points scale in
  [
    ("speedup", keys (E.Isv_study.speedup_cells (E.Isv_study.build ())));
    ("pocs", keys (E.Security.run_pocs_cells ()));
    ("contracts", keys (C.cells ()));
    ( "perf",
      keys
        (E.Perf.lebench_cells ~scale ~variants:perf_variants ()
        @ E.Perf.apps_cells ~scale ~variants:perf_variants ()
        @ sensitivity_cells scale) );
    ("fragmentation", keys (E.Sensitivity.fragmentation_cells ()));
    ( "service-cal",
      keys
        (E.Loadsweep.calibration_cells ~points ~apps:Apps.all ~variants:service_variants ())
    );
    ( "service",
      keys
        (E.Loadsweep.point_cells ~points ~requests:(service_requests scale)
           ~loads:E.Loadsweep.default_loads ~models:[] ~apps:Apps.all
           ~variants:service_variants ()) );
  ]

let verdict (o : Pv_attacks.Lab.outcome) = if o.success then "SECRET LEAKED" else "blocked"

(* 5.4 swift patching and the Table 4.1 gadget shapes as active PoCs (8.1). *)
let poc_extras () =
  let d = Pv_attacks.Spectre_v2.run_patch_demo () in
  Printf.printf
    "Swift patching (5.4): passive v2 with the gadget wrongly inside the\n\
    \ victim's ISV: %s; after excluding the function from the live view\n\
    \ (no kernel patch): %s\n\n"
    (verdict d.before_patch) (verdict d.after_patch);
  let tab =
    Tab.create ~title:"Active PoCs from the Table 4.1 gadget shapes"
      ~header:[ ("Gadget", Tab.Left); ("UNSAFE", Tab.Left); ("PERSPECTIVE", Tab.Left) ]
  in
  let unsafe = V1.run_variants ~scheme:Perspective.Defense.Unsafe () in
  let perspective =
    V1.run_variants ~scheme:(Perspective.Defense.Perspective Perspective.Isv.Dynamic) ()
  in
  List.iter2
    (fun variant (u, p) -> Tab.row tab [ V1.variant_name variant; verdict u; verdict p ])
    V1.variants (List.combine unsafe perspective);
  Tab.print tab

let perf_sections t ~scale ~csv_file ?metrics ?trace_dir () =
  let perf_labels = [ "fig-9.2"; "fig-9.3"; "table-10.1"; "comparisons"; "sensitivity" ] in
  if List.exists (wants t) perf_labels then begin
    let schemes = List.map (fun v -> v.E.Schemes.label) perf_variants in
    (* Cells are declared only when a wanted section reads them: Figure 9.2
       reads only the LEBench matrix and Figure 9.3 only the app matrix. *)
    let lebench_labels = [ "fig-9.2"; "table-10.1"; "comparisons"; "sensitivity" ] in
    let tests = if List.exists (wants t) lebench_labels then Lebench.tests else [] in
    let app_labels = [ "fig-9.3"; "table-10.1"; "comparisons"; "sensitivity" ] in
    let apps = if List.exists (wants t) app_labels then Apps.all else [] in
    let extra = if wants t "sensitivity" then sensitivity_cells scale else [] in
    let micro, macro, results =
      perf_matrices t ~seed:42 ~scale ~variants:perf_variants ~tests ~apps ~extra ?metrics
        ?trace_dir ()
    in
    (* Tables that read every run of a matrix render only when it is
       complete. *)
    let skipped () = print_endline "(skipped: the performance matrices have FAILED cells)" in
    let full f =
      match (E.Perf.complete_matrix micro, E.Perf.complete_matrix macro) with
      | Some micro, Some macro -> f ~micro ~macro
      | _ -> skipped ()
    in
    section t "fig-9.2" "LEBench normalized latency" (fun () ->
        let tab = E.Perf_report.fig_lebench_partial ~labels:schemes micro in
        Tab.print tab;
        Option.iter (Tab.save_csv tab) (csv_file "fig-9.2"));
    section t "fig-9.3" "Datacenter throughput" (fun () ->
        let tab = E.Perf_report.fig_apps_partial ~labels:schemes macro in
        Tab.print tab;
        Option.iter (Tab.save_csv tab) (csv_file "fig-9.3");
        match E.Perf.complete_matrix macro with
        | Some macro -> Tab.print (E.Perf_report.kernel_time_table macro)
        | None -> skipped ());
    section t "table-10.1" "Fence breakdown (ISV vs DSV)" (fun () ->
        full (fun ~micro ~macro ->
            Tab.print (E.Perf_report.fence_breakdown (micro @ macro));
            Tab.print (E.Perf_report.stall_breakdown (micro @ macro))));
    section t "comparisons" "Spot and hardware mitigation comparison" (fun () ->
        full (fun ~micro ~macro -> Tab.print (E.Perf_report.comparison_summary ~micro ~macro)));
    section t "sensitivity" "9.2 sensitivity analyses" (fun () ->
        full (fun ~micro ~macro -> Tab.print (E.Sensitivity.hit_rates ~micro ~macro));
        Tab.print (E.Sensitivity.unknown_allocations_table results);
        let s = sweep t ~label:"fragmentation" (E.Sensitivity.fragmentation_cells ()) in
        Tab.print (E.Sensitivity.fragmentation_table (E.Sensitivity.fragmentation s.results));
        full (fun ~micro:_ ~macro ->
            Tab.print (E.Sensitivity.domain_reassignment ~macro);
            Tab.print (E.Sensitivity.isv_metadata ~macro));
        Tab.print (E.Sensitivity.cache_size_table results))
  end

let run ~config ~scale ?only ?csv ?metrics ?trace_dir () =
  let t = { config; only; headers = true; failed = false } in
  Option.iter (fun dir -> if not (Sys.file_exists dir) then Unix.mkdir dir 0o755) csv;
  let csv_file name = Option.map (fun dir -> Filename.concat dir (name ^ ".csv")) csv in
  print_string
    "Perspective reproduction benchmark harness\n\
     ==========================================\n";
  section t "table-4.1" "Taxonomy of kernel CVEs" (fun () ->
      Tab.print (E.Security.cve_table ()));
  section t "table-7.1" "Simulation parameters" (fun () ->
      Tab.print (E.Static_tables.sim_params ()));
  section t "table-9.1" "View-cache hardware characterization" (fun () ->
      Tab.print (E.Static_tables.hw_characterization ());
      Tab.print (E.Static_tables.hw_sensitivity ()));
  surface t ~seed:42;
  section t "poc-attacks" "Chapter 8 proof-of-concept attacks" (fun () ->
      pocs t (E.Security.run_pocs_cells ~seed:7 ());
      poc_extras ());
  section t "contracts" "Empirical leakage-contract matrix" (fun () ->
      contracts t ?csv:(csv_file "contracts") (C.cells ~seed:7 ()));
  perf_sections t ~scale ~csv_file ?metrics ?trace_dir ();
  section t "fig-9.3-tail" "Open-loop load-latency curves" (fun () ->
      service t ~seed:42 ~requests:(service_requests scale) ~points:(service_points scale)
        ~server:E.Loadsweep.Server.default_config ~loads:E.Loadsweep.default_loads
        ~apps:Apps.all ~variants:service_variants ?csv:(csv_file "fig-9.3-tail") ());
  print_string "\nDone.\n";
  exit_code t
