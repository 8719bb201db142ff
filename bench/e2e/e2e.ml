(* End-to-end sweep benchmark.  See README.md for the workloads and metrics.

   Modes:
     e2e.exe run [--workload W]... [--seed S] [--reps N] [--out FILE]
         time each workload with tracing off: every rep is a fresh
         `e2e.exe drive` process at -j 1
     e2e.exe trace [--workload W]... [--seed S] [--profile FILE]
         one in-process traced pass per workload at -j 1: per-layer self
         times, the trace self-checks and the per-layer metrics
     e2e.exe compare PARENT.json CHANGE.json
         judge every (metric, workload) of two `run --out` files; exit 1 on
         a regression
     e2e.exe golden [--out FILE]
         rewrite the goldens (seed 42, -j 1)
     e2e.exe check [--benchmark FILE] [--golden FILE]
         hold BENCHMARK.json and the goldens to the registry
     e2e.exe bench --workload W --seed S --seconds T --trace 0|1
         one measurement for automated runs (BENCHMARK.json): the last
         stdout line is a JSON result
     e2e.exe drive W --seed S --jobs N --scratch DIR
         (internal) one timed pass, reported on stdout

   Every mode takes [--scratch DIR] (default _build/e2e-scratch) for its
   caches and journals.  Paths are relative to the repository root. *)

open E2e_core
module W = Workloads
module R = Registry
module Tab = Pv_util.Tab

(* Timed drives run at -j 1.  On the shared 2-vCPU host the benchmark was
   built on, -j 2 drives moved 14% run to run where -j 1 drives timed in the
   same minutes moved 8%: every stop-the-world minor collection waits for
   the slower of the two domains, so host noise on either vCPU stalls both.
   The pool at -j 2 is still measured, as pool.efficiency in the trace. *)
let jobs = 1
let pool_jobs = 2
let golden_seed = 42
let golden_path = "bench/e2e/golden.txt"

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("e2e: " ^ m); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* Files                                                                *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec du path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.fold_left (fun acc n -> acc + du (Filename.concat path n)) 0 (Sys.readdir path)
  | st -> st.Unix.st_size
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0

let fresh_dir =
  let n = ref 0 in
  fun scratch label ->
    incr n;
    let d = Filename.concat scratch (Printf.sprintf "%s-%d-%d" label (Unix.getpid ()) !n) in
    rm_rf d;
    mkdir_p d;
    d

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

(* ------------------------------------------------------------------ *)
(* Goldens: a table digest and per-cell digests per workload at seed 42 *)
(* ------------------------------------------------------------------ *)

type reference = { ref_table : string; ref_cells : (string, string) Hashtbl.t }

let load_golden path : (string, reference) Hashtbl.t =
  let tbl = Hashtbl.create 4 in
  let get w =
    match Hashtbl.find_opt tbl w with
    | Some r -> r
    | None ->
      let r = { ref_table = ""; ref_cells = Hashtbl.create 256 } in
      Hashtbl.replace tbl w r;
      r
  in
  if Sys.file_exists path then begin
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        try
          while true do
            match String.split_on_char ' ' (input_line ic) with
            | [ "table"; w; d ] -> Hashtbl.replace tbl w { (get w) with ref_table = d }
            | [ "cell"; w; k; d ] -> Hashtbl.replace (get w).ref_cells k d
            | _ -> ()
          done
        with End_of_file -> ())
  end;
  tbl

(* ------------------------------------------------------------------ *)
(* drive: one timed pass in its own process                              *)
(* ------------------------------------------------------------------ *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        let line = input_line ic in
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> Scanf.sscanf v " %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> find ()
      in
      find ())

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let drive ~workload ~seed ~jobs ~scratch =
  let w = match W.find workload with Some w -> w | None -> die "unknown workload %S" workload in
  let timed = w.W.setup ~traced:false ~seed ~dir:scratch ~jobs in
  let ready = Unix.gettimeofday () and cpu0 = cpu_s () in
  let o = timed () in
  let done_ = Unix.gettimeofday () and cpu1 = cpu_s () in
  Printf.printf "READY %.6f\nDONE %.6f\n" ready done_;
  Printf.printf "cpu_s %.6f\nrss_mb %.3f\n" (cpu1 -. cpu0) (peak_rss_mb ());
  Printf.printf "cells %d\nexecuted %d\nfailed %d\nsim_cycles %d\n" o.W.cells o.W.executed
    o.W.failed o.W.sim_cycles;
  Printf.printf "table %s\n" (Pv_util.Checksum.digest_hex o.W.tables);
  List.iter
    (fun (k, d) -> Printf.printf "cell %s %s\n" k (Option.value d ~default:"FAILED"))
    (o.W.digests ());
  0

(* ------------------------------------------------------------------ *)
(* Spawning drives                                                      *)
(* ------------------------------------------------------------------ *)

type rep = {
  spawn : float;
  ready : float;
  done_ : float;
  cpu : float;
  rss_mb : float;
  cells : int;
  executed : int;
  failed : int;
  sim_cycles : int;
  table : string;
  digests : (string * string) list;
}

let read_all fd =
  let b = Buffer.create 65536 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n -> Buffer.add_subbytes b chunk 0 n; go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  Buffer.contents b

let spawn_drive ~scratch ~seed ~jobs workload =
  let dir = fresh_dir scratch workload in
  let argv =
    [|
      Sys.executable_name; "drive"; workload; "--seed"; string_of_int seed; "--jobs";
      string_of_int jobs; "--scratch"; dir;
    |]
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let spawn = Unix.gettimeofday () in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin w Unix.stderr in
  Unix.close w;
  let out = Fun.protect ~finally:(fun () -> Unix.close r) (fun () -> read_all r) in
  let _, status = Unix.waitpid [] pid in
  rm_rf dir;
  if status <> Unix.WEXITED 0 then die "drive %s (seed %d) did not exit cleanly" workload seed;
  let fields = Hashtbl.create 16 and digests = ref [] in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "cell"; k; d ] -> digests := (k, d) :: !digests
      | [ k; v ] -> Hashtbl.replace fields k v
      | _ -> ())
    (String.split_on_char '\n' out);
  let get k =
    match Hashtbl.find_opt fields k with
    | Some v -> v
    | None -> die "drive %s printed no %s line" workload k
  in
  let f k = float_of_string (get k) and i k = int_of_string (get k) in
  {
    spawn; ready = f "READY"; done_ = f "DONE"; cpu = f "cpu_s"; rss_mb = f "rss_mb";
    cells = i "cells"; executed = i "executed"; failed = i "failed"; sim_cycles = i "sim_cycles";
    table = get "table"; digests = List.rev !digests;
  }

(* Cells of [digests] that failed or differ from [reference]. *)
let mismatches ~reference digests =
  List.length
    (List.filter
       (fun (k, d) -> d = "FAILED" || Hashtbl.find_opt reference.ref_cells k <> Some d)
       digests)

let reference_of_rep (r : rep) =
  let cells = Hashtbl.create 256 in
  List.iter (fun (k, d) -> Hashtbl.replace cells k d) r.digests;
  { ref_table = r.table; ref_cells = cells }

(* The reference a workload's results are checked against: the goldens at
   their seed, otherwise the first rep (so later reps must agree with it). *)
let pick_reference ~golden ~seed workload first =
  match Hashtbl.find_opt golden workload with
  | Some g when seed = golden_seed -> (g, true)
  | _ -> (reference_of_rep first, false)

(* ------------------------------------------------------------------ *)
(* run                                                                  *)
(* ------------------------------------------------------------------ *)

type summary = {
  workload : string;
  verified : bool;  (** checked against the goldens *)
  attempted : int;
  bad : int;  (** failed or mismatching cells over all reps *)
  tables_ok : bool;
  metrics : (R.metric * float list) list;
}

let rep_metric (r : rep) ~bad = function
  | "wall_s" -> r.done_ -. r.ready
  | "setup_s" -> r.ready -. r.spawn
  | "cpu_s" -> r.cpu
  | "peak_rss_mb" -> r.rss_mb
  | "cells_per_s" -> float_of_int r.executed /. (r.done_ -. r.ready)
  | "sim_mcps" -> float_of_int r.sim_cycles /. (r.done_ -. r.ready) /. 1e6
  | "failed_frac" -> float_of_int bad /. float_of_int r.cells
  | m -> invalid_arg ("no per-rep value for " ^ m)

type budget = Reps of int | Seconds of float

let measure ~golden ~scratch ~seed ~budget workload =
  let t0 = Unix.gettimeofday () in
  let rec loop acc =
    let r = spawn_drive ~scratch ~seed ~jobs workload in
    let acc = r :: acc in
    let n = List.length acc in
    let continue =
      match budget with
      | Reps k -> n < k
      | Seconds s -> n < 3 || Unix.gettimeofday () -. t0 +. (r.done_ -. r.spawn) <= s
    in
    if continue then loop acc else List.rev acc
  in
  let reps = loop [] in
  let reference, verified = pick_reference ~golden ~seed workload (List.hd reps) in
  let bad =
    List.map (fun r -> mismatches ~reference r.digests + (r.cells - List.length r.digests)) reps
  in
  {
    workload;
    verified;
    attempted = List.fold_left (fun a r -> a + r.cells) 0 reps;
    bad = List.fold_left ( + ) 0 bad;
    tables_ok = List.for_all (fun r -> r.table = reference.ref_table) reps;
    metrics =
      List.filter_map
        (fun (m : R.metric) ->
          if R.applies m workload then
            Some (m, List.map2 (fun r bad -> rep_metric r ~bad m.R.name) reps bad)
          else None)
        R.end_to_end;
  }

let print_summary ~seed s =
  let tab =
    Tab.create
      ~title:
        (Printf.sprintf "%s (seed %d, -j %d, %d rep%s, %s)" s.workload seed jobs
           (match s.metrics with (_, v) :: _ -> List.length v | [] -> 0)
           (match s.metrics with (_, [ _ ]) :: _ -> "" | _ -> "s")
           (if s.verified then "verified against golden" else "unverified against golden"))
      ~header:
        [
          ("metric", Tab.Left); ("unit", Tab.Left); ("median", Tab.Right); ("q1", Tab.Right);
          ("q3", Tab.Right); ("bound", Tab.Right); ("definition", Tab.Left);
        ]
  in
  List.iter
    (fun ((m : R.metric), values) ->
      let q1, q3 = Quant.quartiles values in
      Tab.row tab
        [
          m.R.name; m.R.unit_; Printf.sprintf "%.4g" (Quant.median values);
          Printf.sprintf "%.4g" q1; Printf.sprintf "%.4g" q3;
          Printf.sprintf "%.0f%%" (100.0 *. m.R.bound); m.R.doc;
        ])
    s.metrics;
  Tab.caption tab
    (Printf.sprintf "%d cells attempted, %d failed or differing from the reference%s" s.attempted
       s.bad
       (if s.tables_ok then "" else "; RENDERED TABLES DIFFER"));
  Tab.print tab

let summary_json ~seed summaries =
  Json.Obj
    [
      ("seed", Json.Num (float_of_int seed));
      ("jobs", Json.Num (float_of_int jobs));
      ( "workloads",
        Json.Obj
          (List.map
             (fun s ->
               ( s.workload,
                 Json.Obj
                   [
                     ("verified", Json.Bool s.verified);
                     ("correct", Json.Bool (s.bad = 0 && s.tables_ok));
                     ( "metrics",
                       Json.Obj
                         (List.map
                            (fun ((m : R.metric), values) ->
                              let q1, q3 = Quant.quartiles values in
                              ( m.R.name,
                                Json.Obj
                                  [
                                    ("unit", Json.Str m.R.unit_);
                                    ("values", Json.Arr (List.map (fun v -> Json.Num v) values));
                                    ("median", Json.Num (Quant.median values));
                                    ("q1", Json.Num q1);
                                    ("q3", Json.Num q3);
                                    ("n", Json.Num (float_of_int (List.length values)));
                                  ] ))
                            s.metrics) );
                   ] ))
             summaries) );
    ]

(* ------------------------------------------------------------------ *)
(* trace                                                                *)
(* ------------------------------------------------------------------ *)

type traced = {
  t_workload : string;
  t_seed : int;
  spans : Span.t list;
  wall : float;  (** the traced timed region *)
  setup_wall : float;
  layers : (string * float) list;
      (** self seconds per layer inside the timed region; "bench" is the
          part no layer span covers *)
  setup_layers : (string * float) list;
  values : (string * float) list;  (** per-layer metrics defined on this workload *)
  self_check : (string * bool) list;
  t_cells : int;
  t_bad : int;  (** traced cells that failed or differ from the reference *)
}

let descendants_of root spans =
  let parent = Hashtbl.create 1024 in
  List.iter (fun (s : Span.t) -> Hashtbl.replace parent s.Span.id s.Span.parent) spans;
  let rec under id = id = root.Span.id || (id >= 0 && under (Hashtbl.find parent id)) in
  List.filter (fun (s : Span.t) -> s.Span.id <> root.Span.id && under s.Span.parent) spans

let trace_workload ~golden ~scratch ~seed (w : W.t) =
  let name = w.W.name in
  let untraced = spawn_drive ~scratch ~seed ~jobs w.W.name in
  let parallel = spawn_drive ~scratch ~seed ~jobs:pool_jobs w.W.name in
  let reference, _ = pick_reference ~golden ~seed name untraced in
  Span.reset ();
  W.reset_stats ();
  let dir = fresh_dir scratch name in
  let timed = Span.with_ "bench/setup" (fun () -> w.W.setup ~traced:true ~seed ~dir ~jobs) in
  let cache_dir = Filename.concat dir "cache" in
  let cache_before = du cache_dir in
  let o = Span.with_ "bench/timed" timed in
  let cache_bytes = du cache_dir - cache_before in
  let journal_bytes = du (Filename.concat dir "checkpoint.journal") in
  let replay = o.W.replay ~dir:(Filename.concat dir "replay") in
  rm_rf dir;
  let digests = o.W.digests () in
  let bad =
    mismatches ~reference
      (List.map (fun (k, d) -> (k, Option.value d ~default:"FAILED")) digests)
  in
  let tables_ok = Pv_util.Checksum.digest_hex o.W.tables = reference.ref_table in
  let spans = Span.all () in
  let root n = List.find (fun (s : Span.t) -> s.Span.name = n) spans in
  let timed_root = root "bench/timed" and setup_root = root "bench/setup" in
  let wall = Span.duration timed_root and setup_wall = Span.duration setup_root in
  let inside = descendants_of timed_root spans in
  let with_rest total layers =
    layers @ [ ("bench", total -. List.fold_left (fun a (_, s) -> a +. s) 0.0 layers) ]
  in
  let layers = with_rest wall (Span.sum_by Span.layer inside) in
  let setup_layers =
    with_rest setup_wall (Span.sum_by Span.layer (descendants_of setup_root spans))
  in
  let unattributed = List.assoc "bench" layers in
  let dur n =
    List.fold_left (fun a (s : Span.t) -> if s.Span.name = n then a +. Span.duration s else a) 0.0
  in
  let d n = dur n inside in
  let cell_ms =
    List.filter_map
      (fun (s : Span.t) ->
        if s.Span.name = "pv_experiments/cell" then Some (1000.0 *. Span.duration s) else None)
      inside
  in
  let pct p = if cell_ms = [] then 0.0 else Pv_util.Stats.percentile cell_ms ~p in
  let st = W.stats in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let fi = float_of_int in
  let run_s = d "pv_uarch/pipeline.run" in
  let machine_s =
    List.fold_left ( +. ) 0.0
      (List.map d
         [
           "pv_sim/machine.create"; "pv_sim/machine.add_process"; "pv_sim/machine.freeze";
           "pv_sim/machine.profile"; "pv_sim/machine.install_defense"; "pv_scanner/gadgets.plant";
         ])
  in
  let service_s =
    List.map d
      [
        "pv_service/arrivals"; "pv_service/costmodel.sample"; "pv_service/server.simulate";
        "pv_service/latency";
      ]
  in
  let busy = d "pv_experiments/cell" and sup = d "pv_experiments/supervise.run" in
  let replayed k = Option.value (List.assoc_opt k replay) ~default:0.0 in
  let layer_pct l = 100.0 *. ratio (Option.value (List.assoc_opt l layers) ~default:0.0) wall in
  let all_values =
    [
      ("pipeline.run_s", run_s);
      ("pipeline.ns_per_cycle", 1e9 *. ratio run_s (fi st.W.cycles));
      ("pipeline.sim_cycles", fi st.W.cycles);
      ("pipeline.committed", fi st.W.committed);
      ("pipeline.ipc", ratio (fi st.W.committed) (fi st.W.cycles));
      ("pipeline.squashes_per_kcycle", 1000.0 *. ratio (fi st.W.squashes) (fi st.W.cycles));
      ("pipeline.stall_frac", ratio (fi st.W.stalls) (fi st.W.cycles));
      ("machine.create_s", d "pv_sim/machine.create");
      ("machine.freeze_s", d "pv_sim/machine.add_process" +. d "pv_sim/machine.freeze");
      ("machine.profile_s", d "pv_sim/machine.profile");
      ("machine.install_defense_s", d "pv_sim/machine.install_defense");
      ("machine.setup_frac", ratio machine_s (machine_s +. run_s));
      ("scanner.plant_s", d "pv_scanner/gadgets.plant");
      ("scanner.plant_calls", fi st.W.plants);
      ("svcache.lookups", fi (st.W.isv_lookups + st.W.dsv_lookups));
      ("svcache.isv_hit_rate", ratio (fi st.W.isv_hits) (fi st.W.isv_lookups));
      ("svcache.dsv_hit_rate", ratio (fi st.W.dsv_hits) (fi st.W.dsv_lookups));
      ("attacks.run_s", replayed "attacks.run_s");
      ("contracts.check_s", d "pv_contracts/check");
      ("contracts.observe_s", d "pv_contracts/check" -. replayed "attacks.run_s");
      ("service.arrivals_s", List.nth service_s 0);
      ("service.sample_s", List.nth service_s 1);
      ("service.server_s", List.nth service_s 2);
      ("service.latency_s", List.nth service_s 3);
      ("service.requests_per_s", ratio (fi st.W.requests) (List.fold_left ( +. ) 0.0 service_s));
      ("service.calibration_s", dur "pv_service/costmodel.calibrate" spans);
      ("supervise.run_s", sup);
      ("supervise.busy_s", busy);
      ("supervise.overhead_s", sup -. busy);
      ("supervise.cell_ms_p50", pct 50.0);
      ("supervise.cell_ms_p90", pct 90.0);
      ("supervise.cell_ms_max", pct 100.0);
      ("supervise.executed", fi o.W.executed);
      ("supervise.cached", fi o.W.cached);
      ("supervise.restored", fi o.W.restored);
      ("supervise.deduped", fi o.W.deduped);
      ( "pool.efficiency",
        ratio busy (fi pool_jobs *. (parallel.done_ -. parallel.ready)) );
      ("rescache.find_s", replayed "rescache.find_s");
      ("rescache.store_s", replayed "rescache.store_s");
      ("rescache.bytes_written", fi cache_bytes);
      ("journal.append_s", replayed "journal.append_s");
      ("journal.bytes", fi journal_bytes);
      ("render_s", d "pv_util/render");
      ("trace.overhead_frac", ratio wall (untraced.done_ -. untraced.ready) -. 1.0);
    ]
    @ List.map (fun l -> (l ^ ".wall_pct", layer_pct l)) R.span_layers
  in
  let values =
    List.filter
      (fun (k, _) -> match R.find k with Some m -> R.applies m name | None -> false)
      all_values
  in
  {
    t_workload = name;
    t_seed = seed;
    spans;
    wall;
    setup_wall;
    layers;
    setup_layers;
    values;
    self_check =
      [
        ( "traced cells reproduce the untraced simulated results (cycles, commits, counters)",
          bad = 0 );
        ("traced tables match the untraced tables", tables_ok);
        ("layer self times cover the traced wall within 5%", unattributed <= 0.05 *. wall);
      ];
    t_cells = o.W.cells;
    t_bad = bad;
  }

let print_traced t =
  let tab =
    Tab.create
      ~title:
        (Printf.sprintf "%s (seed %d): per-layer self time, traced at -j 1" t.t_workload t.t_seed)
      ~header:
        [
          ("layer", Tab.Left); ("set-up s", Tab.Right); ("timed s", Tab.Right);
          ("% of wall", Tab.Right);
        ]
  in
  let names =
    List.sort_uniq compare (List.map fst t.layers @ List.map fst t.setup_layers)
    |> List.sort (fun a b -> compare (a = "bench") (b = "bench"))
  in
  List.iter
    (fun l ->
      let get tbl = Option.value (List.assoc_opt l tbl) ~default:0.0 in
      Tab.row tab
        [
          l; Printf.sprintf "%.3f" (get t.setup_layers); Printf.sprintf "%.3f" (get t.layers);
          Tab.pct (100.0 *. get t.layers /. t.wall);
        ])
    names;
  Tab.caption tab
    (Printf.sprintf
       "set-up %.3f s, timed %.3f s; the bench row is time no layer span covers" t.setup_wall
       t.wall);
  Tab.print tab;
  List.iter
    (fun (k, v) ->
      let unit_, doc = match R.find k with Some m -> (m.R.unit_, m.R.doc) | None -> ("", "") in
      Printf.printf "  %-30s %14.6g %-6s %s\n" k v unit_ doc)
    t.values;
  List.iter
    (fun (what, ok) -> Printf.printf "  self-check: %s: %s\n" what (if ok then "ok" else "FAILED"))
    t.self_check;
  print_newline ()

let profile_json traced =
  Json.Obj
    [
      ( "workloads",
        Json.Obj
          (List.map
             (fun t ->
               ( t.t_workload,
                 Json.Obj
                   [
                     ("seed", Json.Num (float_of_int t.t_seed));
                     ("wall_s", Json.Num t.wall);
                     ("setup_s", Json.Num t.setup_wall);
                     ( "layers_s",
                       Json.Obj (List.map (fun (l, v) -> (l, Json.Num v)) t.layers) );
                     ("spans", Span.to_json t.spans);
                   ] ))
             traced) );
    ]

(* ------------------------------------------------------------------ *)
(* compare                                                              *)
(* ------------------------------------------------------------------ *)

let load_summary path =
  let j = try Json.read_file path with Json.Parse_error e | Sys_error e -> die "%s: %s" path e in
  match Json.member "workloads" j with
  | Some (Json.Obj ws) ->
    List.map
      (fun (w, body) ->
        let metrics =
          match Json.member "metrics" body with
          | Some (Json.Obj ms) ->
            List.filter_map
              (fun (name, m) ->
                match Json.member "values" m with
                | Some (Json.Arr vs) when vs <> [] ->
                  let num v =
                    match Json.to_num v with
                    | Some x -> x
                    | None -> die "%s: %s/%s: a value is not a number" path w name
                  in
                  Some (name, List.map num vs)
                | _ -> None)
              ms
          | _ -> die "%s: workload %s has no metrics" path w
        in
        (w, metrics))
      ws
  | _ -> die "%s: not an `e2e.exe run --out` file" path

let compare_runs parent_path change_path =
  let parent = load_summary parent_path and change = load_summary change_path in
  let tab =
    Tab.create ~title:(Printf.sprintf "%s -> %s" parent_path change_path)
      ~header:
        [
          ("workload", Tab.Left); ("metric", Tab.Left); ("parent", Tab.Right);
          ("change", Tab.Right); ("worse by", Tab.Right); ("spread", Tab.Right);
          ("bound", Tab.Right); ("verdict", Tab.Left);
        ]
  in
  let worse = ref 0 in
  List.iter
    (fun (w, pm) ->
      match List.assoc_opt w change with
      | None -> ()
      | Some cm ->
        List.iter
          (fun (m : R.metric) ->
            match (List.assoc_opt m.R.name pm, List.assoc_opt m.R.name cm) with
            | Some p, Some c ->
              let j =
                Verdict.judge ~better:m.R.better ~bound:m.R.bound ~floor:m.R.floor ~parent:p
                  ~change:c ()
              in
              if j.Verdict.verdict = Verdict.Worse then incr worse;
              Tab.row tab
                [
                  w; m.R.name; Printf.sprintf "%.4g" (Quant.median p);
                  Printf.sprintf "%.4g" (Quant.median c); Tab.pct j.Verdict.change_pct;
                  Tab.pct (100.0 *. j.Verdict.spread);
                  Tab.pct (100.0 *. m.R.bound)
                  ^ if m.R.floor > 0.0 then Printf.sprintf " (>= %g %s)" m.R.floor m.R.unit_
                    else "";
                  Verdict.name j.Verdict.verdict;
                ]
            | _ -> ())
          R.end_to_end)
    parent;
  Tab.caption tab
    "worse by: change of the median, positive = worse.  spread: the parent's interquartile \
     range over median.";
  Tab.print tab;
  if !worse > 0 then begin
    Printf.printf "%d regression%s\n" !worse (if !worse = 1 then "" else "s");
    1
  end
  else 0

(* ------------------------------------------------------------------ *)
(* check                                                                *)
(* ------------------------------------------------------------------ *)

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true | _ -> false)
       s

let check ~benchmark ~golden_path =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  (* The registry itself. *)
  let names = List.map (fun (m : R.metric) -> m.R.name) R.all in
  if List.length (List.sort_uniq compare names) <> List.length names then
    err "registry: duplicate metric names";
  let e2e_names = List.map (fun (m : R.metric) -> m.R.name) R.end_to_end in
  let known_workloads l = List.for_all (fun w -> List.mem w W.names) l in
  List.iter
    (fun (m : R.metric) ->
      if not (valid_name m.R.name) then err "registry: bad metric name %S" m.R.name;
      if not (valid_unit m.R.unit_) then err "registry: %s: bad unit %S" m.R.name m.R.unit_;
      if not (known_workloads m.R.scope) then
        err "registry: %s: unknown workload in scope" m.R.name;
      if m.R.exported && m.R.scope <> [] then
        err "registry: %s is exported but not defined on every workload" m.R.name)
    R.all;
  List.iter
    (fun (m : R.metric) ->
      if m.R.exported && not (m.R.bound > 0.0 && m.R.bound <= 0.25) then
        err "registry: %s: bound %g outside (0, 0.25]" m.R.name m.R.bound)
    R.end_to_end;
  (match R.find "setup_s" with
  | Some s ->
    if List.exists (fun (m : R.metric) -> m.R.exported && m.R.bound > s.R.bound) R.end_to_end then
      err "registry: setup_s must carry the largest bound"
  | None -> err "registry: no setup_s metric");
  List.iter
    (fun (m : R.metric) ->
      if not (List.mem m.R.layer R.layers) then
        err "registry: %s: unknown layer %S" m.R.name m.R.layer;
      List.iter
        (fun e -> if not (List.mem e e2e_names) then err "registry: %s moves unknown %S" m.R.name e)
        m.R.moves;
      if not (known_workloads m.R.on) then err "registry: %s: unknown workload in on" m.R.name;
      List.iter
        (fun w ->
          if not (R.applies m w) then
            err "registry: %s moves on %s, outside its scope" m.R.name w)
        m.R.on)
    R.per_layer;
  (* BENCHMARK.json against the registry. *)
  (match Json.read_file benchmark with
  | exception (Json.Parse_error e | Sys_error e) -> err "%s: %s" benchmark e
  | j ->
    let str k o = Option.bind (Json.member k o) Json.to_str in
    let list k =
      match Json.member k j with
      | Some (Json.Arr l) -> l
      | _ ->
        err "%s: no %s list" benchmark k;
        []
    in
    let expect_metrics key (registry : R.metric list) ~with_bound =
      let listed = list key in
      let exported = List.filter (fun (m : R.metric) -> m.R.exported) registry in
      if List.length listed <> List.length exported then
        err "%s: %s lists %d metrics, the registry exports %d" benchmark key (List.length listed)
          (List.length exported);
      List.iter2
        (fun o (m : R.metric) ->
          if str "name" o <> Some m.R.name then err "%s: %s: expected %s" benchmark key m.R.name
          else begin
            if str "unit" o <> Some m.R.unit_ then err "%s: %s: unit differs" benchmark m.R.name;
            if str "better" o <> Some (R.better_name m.R.better) then
              err "%s: %s: direction differs" benchmark m.R.name;
            if with_bound && Option.bind (Json.member "bound" o) Json.to_num <> Some m.R.bound then
              err "%s: %s: bound differs" benchmark m.R.name
          end)
        (List.filteri (fun i _ -> i < List.length exported) listed)
        (List.filteri (fun i _ -> i < List.length listed) exported)
    in
    expect_metrics "end_to_end" R.end_to_end ~with_bound:true;
    expect_metrics "per_layer" R.per_layer ~with_bound:false;
    let listed = List.filter_map (str "name") (list "workloads") in
    if listed <> W.names then
      err "%s: workloads %s, expected %s" benchmark (String.concat "," listed)
        (String.concat "," W.names);
    List.iter
      (fun o ->
        match (str "name" o, str "why" o) with
        | Some n, Some why -> (
          if String.length why > 200 then err "%s: %s: why longer than 200 characters" benchmark n;
          match W.find n with
          | Some w when w.W.why <> why -> err "%s: %s: why differs from the workload's" benchmark n
          | _ -> ())
        | _ -> err "%s: workload without name or why" benchmark)
      (list "workloads"));
  (* Goldens. *)
  let golden = load_golden golden_path in
  List.iter
    (fun w ->
      match Hashtbl.find_opt golden w with
      | Some g when g.ref_table <> "" && Hashtbl.length g.ref_cells > 0 -> ()
      | _ -> err "%s: no goldens for %s" golden_path w)
    W.names;
  match List.rev !errors with
  | [] ->
    Printf.printf "check: ok (%d metrics, %d workloads, %d golden cells)\n" (List.length R.all)
      (List.length W.names)
      (Hashtbl.fold (fun _ g a -> a + Hashtbl.length g.ref_cells) golden 0);
    0
  | es ->
    List.iter (fun e -> prerr_endline ("check: " ^ e)) es;
    1

(* ------------------------------------------------------------------ *)
(* golden                                                               *)
(* ------------------------------------------------------------------ *)

let write_golden ~scratch ~out =
  let b = Buffer.create 65536 in
  Buffer.add_string b
    (Printf.sprintf
       "# e2e goldens: seed %d, -j 1.  Regenerate with `e2e.exe golden` after a change that\n\
        # legitimately moves simulated results.\n"
       golden_seed);
  List.iter
    (fun w ->
      let r = spawn_drive ~scratch ~seed:golden_seed ~jobs w in
      if r.failed > 0 then die "golden: %s has %d failed cells" w r.failed;
      Buffer.add_string b (Printf.sprintf "table %s %s\n" w r.table);
      List.iter
        (fun (k, d) -> Buffer.add_string b (Printf.sprintf "cell %s %s %s\n" w k d))
        r.digests)
    W.names;
  write_file out (Buffer.contents b);
  Printf.printf "wrote %s\n" out;
  0

(* ------------------------------------------------------------------ *)
(* bench: one measurement for automated runs                             *)
(* ------------------------------------------------------------------ *)

let result_line ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun ((m : R.metric), v) ->
                  (m.R.name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str m.R.unit_) ]))
                metrics) );
       ])

let bench ~golden ~scratch ~workload ~seed ~seconds ~trace =
  let w = match W.find workload with Some w -> w | None -> die "unknown workload %S" workload in
  if trace then begin
    let t = trace_workload ~golden ~scratch ~seed w in
    print_traced t;
    let metrics =
      List.filter_map
        (fun (m : R.metric) ->
          if m.R.exported then Option.map (fun v -> (m, v)) (List.assoc_opt m.R.name t.values)
          else None)
        R.per_layer
    in
    print_endline
      (result_line
         ~correct:(List.for_all snd t.self_check)
         ~attempted:t.t_cells ~failed:t.t_bad metrics)
  end
  else begin
    let s = measure ~golden ~scratch ~seed ~budget:(Seconds seconds) workload in
    print_summary ~seed s;
    let metrics =
      List.filter_map
        (fun ((m : R.metric), values) ->
          if m.R.exported then Some (m, Quant.median values) else None)
        s.metrics
    in
    print_endline
      (result_line ~correct:(s.bad = 0 && s.tables_ok) ~attempted:s.attempted ~failed:s.bad metrics)
  end;
  0

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: e2e.exe run [--workload W]... [--seed S] [--reps N] [--out FILE]\n\
    \       e2e.exe trace [--workload W]... [--seed S] [--profile FILE]\n\
    \       e2e.exe compare PARENT.json CHANGE.json\n\
    \       e2e.exe golden [--out FILE]\n\
    \       e2e.exe check [--benchmark FILE] [--golden FILE]\n\
    \       e2e.exe bench --workload W --seed S --seconds T --trace 0|1\n\
     every mode: [--scratch DIR]";
  exit 2

(* Every flag takes one value; repeated flags accumulate. *)
let parse_flags ~allowed args =
  let rec go pos flags = function
    | [] -> (List.rev pos, List.rev flags)
    | f :: v :: rest when String.length f > 2 && String.sub f 0 2 = "--" ->
      if not (List.mem f allowed) then (prerr_endline ("e2e: unknown flag " ^ f); usage ());
      go pos ((f, v) :: flags) rest
    | f :: [] when String.length f > 2 && String.sub f 0 2 = "--" ->
      prerr_endline ("e2e: " ^ f ^ " needs a value");
      usage ()
    | p :: rest -> go (p :: pos) flags rest
  in
  go [] [] args

let flag flags f = List.assoc_opt f (List.rev flags)
let flag_all flags f = List.filter_map (fun (k, v) -> if k = f then Some v else None) flags

let seconds_of v =
  match float_of_string_opt v with
  | Some s when s > 0.0 -> s
  | _ -> die "--seconds expects a positive number"

let int_flag flags f ~default =
  match flag flags f with
  | None -> default
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> die "%s expects an integer" f)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let parse mode extra =
    let pos, flags = parse_flags ~allowed:("--scratch" :: extra) args in
    (List.filter (fun p -> p <> mode) pos, flags)
  in
  let scratch flags = Option.value (flag flags "--scratch") ~default:"_build/e2e-scratch" in
  let workloads flags =
    match flag_all flags "--workload" with
    | [] -> W.all
    | ws ->
      List.map
        (fun n -> match W.find n with Some w -> w | None -> die "unknown workload %S" n)
        ws
  in
  let code =
    match args with
    | "drive" :: _ -> (
      match parse "drive" [ "--seed"; "--jobs" ] with
      | [ w ], flags ->
        drive ~workload:w ~seed:(int_flag flags "--seed" ~default:golden_seed)
          ~jobs:(int_flag flags "--jobs" ~default:jobs) ~scratch:(scratch flags)
      | _ -> usage ())
    | "run" :: _ ->
      let _, flags = parse "run" [ "--workload"; "--seed"; "--reps"; "--out" ] in
      let seed = int_flag flags "--seed" ~default:golden_seed in
      let budget = Reps (max 1 (int_flag flags "--reps" ~default:1)) in
      let golden = load_golden golden_path and scratch = scratch flags in
      let summaries =
        List.map
          (fun (w : W.t) ->
            let s = measure ~golden ~scratch ~seed ~budget w.W.name in
            print_summary ~seed s;
            s)
          (workloads flags)
      in
      Option.iter
        (fun out -> write_file out (Json.to_string (summary_json ~seed summaries) ^ "\n"))
        (flag flags "--out");
      if List.for_all (fun s -> s.bad = 0 && s.tables_ok) summaries then 0 else 1
    | "trace" :: _ ->
      let _, flags = parse "trace" [ "--workload"; "--seed"; "--profile" ] in
      let seed = int_flag flags "--seed" ~default:golden_seed in
      let golden = load_golden golden_path and scratch = scratch flags in
      let traced =
        List.map
          (fun w ->
            let t = trace_workload ~golden ~scratch ~seed w in
            print_traced t;
            t)
          (workloads flags)
      in
      Option.iter
        (fun out -> write_file out (Json.to_string (profile_json traced) ^ "\n"))
        (flag flags "--profile");
      if List.for_all (fun t -> List.for_all snd t.self_check) traced then 0 else 1
    | "compare" :: _ -> (
      match parse "compare" [] with
      | [ a; b ], _ -> compare_runs a b
      | _ -> usage ())
    | "golden" :: _ ->
      let _, flags = parse "golden" [ "--out" ] in
      write_golden ~scratch:(scratch flags)
        ~out:(Option.value (flag flags "--out") ~default:golden_path)
    | "check" :: _ ->
      let _, flags = parse "check" [ "--benchmark"; "--golden" ] in
      check
        ~benchmark:(Option.value (flag flags "--benchmark") ~default:"BENCHMARK.json")
        ~golden_path:(Option.value (flag flags "--golden") ~default:golden_path)
    | "bench" :: _ -> (
      let _, flags = parse "bench" [ "--workload"; "--seed"; "--seconds"; "--trace" ] in
      match (flag flags "--workload", flag flags "--seconds", flag flags "--trace") with
      | Some workload, Some seconds, Some trace ->
        bench ~golden:(load_golden golden_path) ~scratch:(scratch flags) ~workload
          ~seed:(int_flag flags "--seed" ~default:golden_seed)
          ~seconds:(seconds_of seconds) ~trace:(trace = "1")
      | _ -> usage ())
    | _ -> usage ()
  in
  exit code
