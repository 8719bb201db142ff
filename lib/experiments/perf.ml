module Machine = Pv_sim.Machine
module Pipeline = Pv_uarch.Pipeline
module Kernel = Pv_kernel.Kernel
module Slab = Pv_kernel.Slab
module Lebench = Pv_workloads.Lebench
module Apps = Pv_workloads.Apps
module Driver = Pv_workloads.Driver
module Defense = Perspective.Defense
module Svcache = Perspective.Svcache

type run = {
  label : string;
  workload : string;
  cycles : int;
  committed : int;
  counters : Pipeline.counters;
  kernel_cycle_fraction : float;
  isv_hit_rate : float option;  (* None: the cache was never accessed *)
  dsv_hit_rate : float option;
  slab_utilization : float;
  slab_frees : int;
  slab_page_returns : int;
  isv_pages_populated : int;
  isv_metadata_bytes : int;
  units : int;
  metrics : Pv_util.Metrics.snapshot;
  events : Pipeline.event list;  (* [] unless the cell ran with ~trace:true *)
}

let fences_per_kiloinstr run =
  let k = float_of_int (max 1 run.counters.Pipeline.committed_kernel) /. 1000.0 in
  ( float_of_int run.counters.Pipeline.fences_isv /. k,
    float_of_int run.counters.Pipeline.fences_dsv /. k )

(* Each measurement is one self-contained Machine.run_job: pure inputs in, a
   [run] record out.  Nothing here may touch state shared across runs — the
   supervised sweeps below ship these to worker processes.  [fuel] is the
   supervisor's cycle budget; a run that exhausts it raises the structured
   Machine.Run_timeout instead of spinning forever. *)
let execute ?fuel ?(trace = false) ~seed ~block_unknown ~view_cache_entries
    ~syscalls ~sequence ~iterations ~user_work ~workload_name (variant : Schemes.variant) =
  let pipe_config = variant.Schemes.transform Pipeline.default_config in
  let pipe_config = { pipe_config with Pipeline.trace_events = trace } in
  let m, h, result, delta =
    Machine.run_job ?fuel ~pipe_config ~block_unknown ~view_cache_entries ~seed
      ~syscalls ~name:workload_name
      ~user_funcs:(Driver.build ~iterations ~sequence ~user_work)
      ~profile:sequence variant.Schemes.scheme
  in
  Machine.check_result ~name:(workload_name ^ "/" ^ variant.Schemes.label) result;
  let slab = Kernel.slab (Machine.kernel m) in
  let hit_rate cache_of =
    match Machine.defense m with
    | Some d -> Svcache.hit_rate (cache_of d)
    | None -> None
  in
  let ctx = Pv_kernel.Process.cgroup (Machine.process h) in
  let pages, meta_bytes =
    match Machine.defense m with
    | Some d ->
      ( Perspective.Isv_pages.populated_pages (Defense.isv_pages d) ~ctx,
        Perspective.Isv_pages.metadata_bytes (Defense.isv_pages d) ~ctx )
    | None -> (0, 0)
  in
  (* One registry per cell: everything in it is a function of the (pure)
     job inputs, so the snapshot obeys the -j byte-identity contract. *)
  let reg = Pv_util.Metrics.create () in
  Pipeline.observe_metrics reg delta;
  (match Machine.defense m with
  | Some d ->
    Svcache.observe_metrics reg ~prefix:"svcache.isv" (Defense.isv_cache d);
    Svcache.observe_metrics reg ~prefix:"svcache.dsv" (Defense.dsv_cache d)
  | None -> ());
  Pv_util.Metrics.set_float reg "slab.secure.utilization" (Slab.utilization slab);
  Pv_util.Metrics.set_int reg "slab.secure.active_bytes" (Slab.active_bytes slab);
  Pv_util.Metrics.set_int reg "slab.secure.frag_bytes"
    (Slab.slab_bytes slab - Slab.active_bytes slab);
  Pv_util.Metrics.set_int reg "slab.secure.frees" (Slab.total_frees slab);
  Pv_util.Metrics.set_int reg "slab.secure.page_returns" (Slab.page_returns slab);
  Pv_util.Metrics.set_int reg "slab.secure.peak_pages" (Slab.peak_pages slab);
  Pv_util.Metrics.set_int reg "isv_pages.populated" pages;
  Pv_util.Metrics.set_int reg "isv_pages.metadata_bytes" meta_bytes;
  Pv_util.Metrics.set_int reg "workload.units" iterations;
  {
    label = variant.Schemes.label;
    workload = workload_name;
    cycles = result.Pipeline.cycles;
    committed = result.Pipeline.committed;
    counters = delta;
    kernel_cycle_fraction =
      float_of_int delta.Pipeline.kernel_cycles
      /. float_of_int (max 1 delta.Pipeline.cycles);
    isv_hit_rate = hit_rate Defense.isv_cache;
    dsv_hit_rate = hit_rate Defense.dsv_cache;
    slab_utilization = Slab.utilization slab;
    slab_frees = Slab.total_frees slab;
    slab_page_returns = Slab.page_returns slab;
    isv_pages_populated = pages;
    isv_metadata_bytes = meta_bytes;
    units = iterations;
    metrics = Pv_util.Metrics.snapshot reg;
    events = (if trace then Pipeline.events (Machine.pipeline m) else []);
  }

let run_lebench ~seed ~scale ~block_unknown ~view_cache_entries ?fuel ?trace variant test =
  let test = Lebench.scaled test ~factor:scale in
  execute ?fuel ?trace ~seed ~block_unknown ~view_cache_entries
    ~syscalls:Lebench.all_syscalls ~sequence:test.Lebench.sequence
    ~iterations:test.Lebench.iterations ~user_work:test.Lebench.user_work
    ~workload_name:test.Lebench.name variant

let run_app ?(seed = 42) ?(scale = 1.0) ?(block_unknown = true)
    ?(view_cache_entries = 128) ?fuel ?trace variant app =
  let app = Apps.scaled app ~factor:scale in
  execute ?fuel ?trace ~seed ~block_unknown ~view_cache_entries
    ~syscalls:Apps.all_syscalls ~sequence:app.Apps.request
    ~iterations:app.Apps.requests ~user_work:app.Apps.user_work
    ~workload_name:app.Apps.name variant

(* Deterministic merge: cells are declared row-major (workload outer,
   variant inner) and a sweep returns results in declaration order, so the
   reassembled matrix — and any table rendered from it — is byte-identical
   for every worker count. *)
let split_rows names ~width runs =
  let rec take k l =
    if k = 0 then ([], l)
    else
      match l with
      | [] -> invalid_arg "Perf.split_rows: short result list"
      | x :: r ->
        let row, rest = take (k - 1) r in
        (x :: row, rest)
  in
  let rec go names runs =
    match names with
    | [] ->
      if runs <> [] then invalid_arg "Perf.split_rows: excess results";
      []
    | name :: tl ->
      let row, rest = take width runs in
      (name, row) :: go tl rest
  in
  go names runs

(* --- supervised sweeps ----------------------------------------------- *)

let cell_key ~prefix workload (v : Schemes.variant) =
  Printf.sprintf "%s/%s/%s" prefix workload v.Schemes.label

(* A cell's inputs are keyed by its descriptor, the canonical
   serialization of *every* input of the measurement: workload, scheme label
   (which determines the pipeline transform of the standard variants), seed,
   scale, the blocking and view-cache knobs, and whether the event trace was
   on, since it lands in the result record.  Fuel is deliberately absent: it
   only decides whether the cell fails, and only successes are ever stored.

   Only a Perspective guard reads the two knobs (Defense.build), so every
   other variant runs and is keyed at the defaults: a study that varies them
   shares its baselines with the matrices, one simulation per descriptor.
   Cells are row-major (workload outer, variant inner). *)
let cells ~family ~prefix ~seed ~scale ~block_unknown ~view_cache_entries ~trace ~variants
    ~run workloads =
  List.concat_map
    (fun (name, w) ->
      List.map
        (fun (v : Schemes.variant) ->
          let block_unknown, view_cache_entries =
            match v.Schemes.scheme with
            | Defense.Perspective _ -> (block_unknown, view_cache_entries)
            | _ -> (true, 128)
          in
          Supervise.cell
            ~cache:
              (Printf.sprintf
                 "perf/%s|w=%s|scheme=%s|seed=%d|scale=%.17g|bu=%b|vce=%d|trace=%b" family
                 name v.Schemes.label seed scale block_unknown view_cache_entries
                 (trace = Some true))
            (cell_key ~prefix name v)
            (fun ~fuel -> run ~fuel ~block_unknown ~view_cache_entries v w))
        variants)
    workloads

let lebench_cells ?(seed = 42) ?(scale = 1.0) ?(block_unknown = true)
    ?(view_cache_entries = 128) ?trace ?(prefix = "lebench") ?(tests = Lebench.tests)
    ~variants () =
  cells ~family:"lebench" ~prefix ~seed ~scale ~block_unknown ~view_cache_entries ~trace
    ~variants
    ~run:(fun ~fuel ~block_unknown ~view_cache_entries v t ->
      run_lebench ~seed ~scale ~block_unknown ~view_cache_entries ?fuel ?trace v t)
    (List.map (fun t -> (t.Lebench.name, t)) tests)

let apps_cells ?(seed = 42) ?(scale = 1.0) ?(block_unknown = true)
    ?(view_cache_entries = 128) ?trace ?(prefix = "apps") ?(apps = Apps.all) ~variants () =
  cells ~family:"apps" ~prefix ~seed ~scale ~block_unknown ~view_cache_entries ~trace
    ~variants
    ~run:(fun ~fuel ~block_unknown ~view_cache_entries v a ->
      run_app ~seed ~scale ~block_unknown ~view_cache_entries ?fuel ?trace v a)
    (List.map (fun a -> (a.Apps.name, a)) apps)

(* Reassemble a sweep's declaration-ordered results into the row-major
   (workload x variant) matrix shape, failed cells as None. *)
let matrix_of_sweep ~names ~width (sweep : _ Supervise.sweep) =
  split_rows names ~width (List.map snd sweep.Supervise.results)

let complete_matrix matrix =
  if List.for_all (fun (_, runs) -> List.for_all Option.is_some runs) matrix then
    Some (List.map (fun (name, runs) -> (name, List.map Option.get runs)) matrix)
  else None

let overhead_pct ~baseline run =
  (float_of_int run.cycles /. float_of_int baseline.cycles -. 1.0) *. 100.0

let normalized_latency ~baseline run =
  float_of_int run.cycles /. float_of_int baseline.cycles

let normalized_throughput ~baseline run =
  float_of_int baseline.cycles /. float_of_int run.cycles
