(* The benchmark's workloads: closed batches of sweep cells submitted through
   the same entry points the CLI uses (Supervise.run, Loadsweep.run), then
   rendered into the workload's tables.

   Every workload has an untraced form, which the timed drive processes run,
   and a traced form for the per-layer pass.  The traced form submits the
   same cells through the same Supervise.run, but each cell's body is a
   step-by-step copy of the library function it would call, with a span
   around each call into a layer.  The copies must produce the same
   simulated results; the trace self-check compares their digests. *)

module E = Pv_experiments
module Supervise = E.Supervise
module Perf = E.Perf
module Perf_report = E.Perf_report
module Schemes = E.Schemes
module Loadsweep = E.Loadsweep
module Contracts = Pv_contracts.Contracts
module Tab = Pv_util.Tab
module Checksum = Pv_util.Checksum
module Metrics = Pv_util.Metrics
module Rescache = Pv_util.Rescache
module Journal = Pv_util.Journal
module Rng = Pv_util.Rng
module Pipeline = Pv_uarch.Pipeline
module Machine = Pv_sim.Machine
module Lebench = Pv_workloads.Lebench
module Apps = Pv_workloads.Apps
module Driver = Pv_workloads.Driver
module Defense = Perspective.Defense
module Svcache = Perspective.Svcache
module Costmodel = Pv_service.Costmodel
module Arrivals = Pv_service.Arrivals
module Server = Pv_service.Server
module Latency = Pv_service.Latency
module V1 = Pv_attacks.Spectre_v1
module V2 = Pv_attacks.Spectre_v2
module Rsb = Pv_attacks.Spectre_rsb

(* What one pass over a workload produced.  [digests] is forced after the
   timed region, so hashing results never counts as workload time. *)
type outcome = {
  cells : int;
  executed : int;
  cached : int;
  restored : int;
  deduped : int;
  failed : int;
  sim_cycles : int;  (** simulated cycles of the executed perf cells *)
  tables : string;
  digests : unit -> (string * string option) list;  (** cell key -> digest; [None] = failed *)
  replay : dir:string -> (string * float) list;
      (** traced pass only: re-issues the pass's cache, journal and attack
          calls against scratch state and returns their host seconds *)
}

type t = {
  name : string;
  why : string;
  setup : traced:bool -> seed:int -> dir:string -> jobs:int -> unit -> outcome;
      (** Everything before the timed region (cell lists, cache and journal
          creation, calibration fills); returns the timed region. *)
}

(* Simulated statistics gathered by the traced cell copies. *)
type sim_stats = {
  mutable cycles : int;
  mutable committed : int;
  mutable squashes : int;
  mutable stalls : int;
  mutable isv_lookups : int;
  mutable isv_hits : int;
  mutable dsv_lookups : int;
  mutable dsv_hits : int;
  mutable plants : int;
  mutable requests : int;
}

let stats =
  {
    cycles = 0; committed = 0; squashes = 0; stalls = 0; isv_lookups = 0; isv_hits = 0;
    dsv_lookups = 0; dsv_hits = 0; plants = 0; requests = 0;
  }

let reset_stats () =
  stats.cycles <- 0; stats.committed <- 0; stats.squashes <- 0; stats.stalls <- 0;
  stats.isv_lookups <- 0; stats.isv_hits <- 0; stats.dsv_lookups <- 0; stats.dsv_hits <- 0;
  stats.plants <- 0; stats.requests <- 0

(* The simulator faults on some machine seeds: a syscall's dispatch-table
   slot is left unrealized in the kernel image, and the run commits an
   indirect call into it ("machine fault: icall to invalid VA").  A
   benchmark input must not fail, so each workload runs with a vetted seed:
   [--seed n] is folded into the scanned range 1..[scanned], and a seed that
   faulted there moves to the next one that did not.  The fault lists come
   from running every seed of the range (perf: each row under UNSAFE at
   scales 0.3 and 1.0; service: the calibrations). *)
let vetted ~scanned ~faulty n =
  let fold n = 1 + ((((n - 1) mod scanned) + scanned) mod scanned) in
  let rec pick n = if List.mem n faulty then pick (fold (n + 1)) else n in
  pick (fold n)

let perf_seed =
  vetted ~scanned:120
    ~faulty:[ 1; 2; 5; 12; 18; 24; 32; 34; 38; 44; 61; 63; 65; 67; 85; 88; 94; 110; 111 ]

let service_seed = vetted ~scanned:60 ~faulty:[ 7; 29; 44; 57 ]

let spanned traced name f = if traced then Span.with_ name f else f ()

let time f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* [c] with its body inside a span. *)
let in_span ?cell name (c : _ Supervise.cell) =
  { c with run = (fun ~fuel -> Span.with_ ?cell name (fun () -> c.run ~fuel)) }

let sweep ~traced ~config cells =
  let cells =
    if traced then
      List.map (fun (c : _ Supervise.cell) -> in_span ~cell:c.key "pv_experiments/cell" c) cells
    else cells
  in
  spanned traced "pv_experiments/supervise.run" (fun () -> Supervise.run ~config cells)

let config ~jobs ~dir ~cache ~journal =
  {
    Supervise.default with
    jobs;
    cache = (if cache then Some (Rescache.open_dir (Filename.concat dir "cache")) else None);
    checkpoint = (if journal then Some (Filename.concat dir "checkpoint.journal") else None);
  }

(* (cells, executed, cached, restored, deduped, failed) of one sweep. *)
let tally (s : _ Supervise.sweep) =
  ( List.length s.Supervise.results, s.Supervise.executed, s.Supervise.cached,
    s.Supervise.restored, s.Supervise.deduped, Supervise.failed s )

let add (a, b, c, d, e, f) (a', b', c', d', e', f') =
  (a + a', b + b', c + c', d + d', e + e', f + f')

let render tabs =
  let b = Buffer.create 8192 in
  List.iter (fun t -> Buffer.add_string b (Tab.to_string t)) tabs;
  Buffer.contents b

let digest_results f (sweep : _ Supervise.sweep) =
  List.map (fun (k, v) -> (k, Option.map f v)) sweep.Supervise.results

(* Cache and journal calls a sweep made, re-issued on scratch state: finds
   for every cell with a descriptor, then stores of the executed values,
   then journal appends of every successful cell.  [prefill] are entries
   the real cache already held before the timed region. *)
let replay_persistence ~dir ~cache ~journal ~prefill ~descs values executed =
  let rc = Rescache.open_dir (Filename.concat dir "replay-cache") in
  List.iter (fun (desc, v) -> Rescache.store rc ~key:desc v) prefill;
  let find_s =
    if cache then time (fun () -> List.iter (fun d -> ignore (Rescache.find rc ~key:d)) descs)
    else 0.0
  in
  let store_s =
    if cache then time (fun () -> List.iter (fun (d, v) -> Rescache.store rc ~key:d v) executed)
    else 0.0
  in
  let append_s =
    if journal then begin
      let w = Journal.open_writer (Filename.concat dir "replay.journal") in
      let s = time (fun () -> List.iter (fun (k, v) -> Journal.append w ~key:k v) values) in
      Journal.close w;
      s
    end
    else 0.0
  in
  [ ("rescache.find_s", find_s); ("rescache.store_s", store_s); ("journal.append_s", append_s) ]

let descs_of cells = List.filter_map (fun (c : _ Supervise.cell) -> c.cache) cells

(* Values of the successful cells, and (descriptor, value) of the executed
   ones: a sweep with a fresh cache executes every cell it does not alias. *)
let persisted cells (sweep : _ Supervise.sweep) =
  let values =
    List.filter_map (fun (k, v) -> Option.map (fun v -> (k, v)) v) sweep.Supervise.results
  in
  let executed =
    List.filter_map
      (fun (c : _ Supervise.cell) ->
        match (c.cache, List.assoc_opt c.key values) with
        | Some d, Some v -> Some (d, v)
        | _ -> None)
      cells
  in
  (values, executed)

(* ------------------------------------------------------------------ *)
(* Perf sweeps (Figures 9.2/9.3, Table 10.1)                            *)
(* ------------------------------------------------------------------ *)

let float_opt = function None -> "-" | Some x -> Printf.sprintf "%.17g" x

(* The simulated statistics the goldens gate: cycles, commits, every
   pipeline counter (stall classes included) and the view-cache hit rates. *)
let perf_digest (r : Perf.run) =
  let reg = Metrics.create () in
  Pipeline.observe_metrics reg r.Perf.counters;
  Checksum.digest_hex
    (String.concat "|"
       [
         r.Perf.label; r.Perf.workload; string_of_int r.Perf.cycles;
         string_of_int r.Perf.committed; float_opt r.Perf.isv_hit_rate;
         float_opt r.Perf.dsv_hit_rate; Metrics.snapshot_to_json (Metrics.snapshot reg);
       ])

(* Step-by-step copy of Perf.execute (via Machine.run_job) with a span
   around each layer call.  It fills the fields the goldens and the tables
   read; the telemetry snapshot, slab and ISV-page fields stay empty. *)
let traced_execute ?fuel ~seed ~syscalls ~sequence ~iterations ~user_work ~name
    (v : Schemes.variant) =
  let pipe_config =
    { (v.Schemes.transform Pipeline.default_config) with Pipeline.trace_events = false }
  in
  let m =
    Span.with_ "pv_sim/machine.create" (fun () -> Machine.create ~pipe_config ~seed ~syscalls ())
  in
  let h =
    Span.with_ "pv_sim/machine.add_process" (fun () ->
        Machine.add_process m ~name
          ~user_funcs:(Driver.build ~iterations ~sequence ~user_work)
          ~entry:0)
  in
  Span.with_ "pv_sim/machine.freeze" (fun () -> Machine.freeze m);
  Span.with_ "pv_sim/machine.profile" (fun () ->
      Machine.profile m h ~workload:sequence ~repetitions:25);
  let gadget_nodes =
    if v.Schemes.scheme = Defense.Perspective Perspective.Isv.Plus then begin
      stats.plants <- stats.plants + 1;
      Span.with_ "pv_scanner/gadgets.plant" (fun () ->
          Pv_scanner.Gadgets.nodes
            (Pv_scanner.Gadgets.plant (Pv_kernel.Kernel.graph (Machine.kernel m)) ~seed))
    end
    else []
  in
  Span.with_ "pv_sim/machine.install_defense" (fun () ->
      Machine.install_defense m ~gadget_nodes ~block_unknown:true ~isv_cache_entries:128
        ~dsv_cache_entries:128 v.Schemes.scheme);
  let result, delta = Span.with_ "pv_uarch/pipeline.run" (fun () -> Machine.run ?fuel m h) in
  Machine.check_result ~name:(name ^ "/" ^ v.Schemes.label) result;
  let hit_rate cache_of =
    Option.bind (Machine.defense m) (fun d -> Svcache.hit_rate (cache_of d))
  in
  Option.iter
    (fun d ->
      let i = Defense.isv_cache d and s = Defense.dsv_cache d in
      stats.isv_lookups <- stats.isv_lookups + Svcache.accesses i;
      stats.isv_hits <- stats.isv_hits + Svcache.hits i;
      stats.dsv_lookups <- stats.dsv_lookups + Svcache.accesses s;
      stats.dsv_hits <- stats.dsv_hits + Svcache.hits s)
    (Machine.defense m);
  stats.cycles <- stats.cycles + result.Pipeline.cycles;
  stats.committed <- stats.committed + result.Pipeline.committed;
  stats.squashes <- stats.squashes + delta.Pipeline.squashes;
  stats.stalls <- stats.stalls + delta.Pipeline.stall_total;
  {
    Perf.label = v.Schemes.label;
    workload = name;
    cycles = result.Pipeline.cycles;
    committed = result.Pipeline.committed;
    counters = delta;
    kernel_cycle_fraction =
      float_of_int delta.Pipeline.kernel_cycles /. float_of_int (max 1 delta.Pipeline.cycles);
    isv_hit_rate = hit_rate Defense.isv_cache;
    dsv_hit_rate = hit_rate Defense.dsv_cache;
    slab_utilization = 0.0;
    slab_frees = 0;
    slab_page_returns = 0;
    isv_pages_populated = 0;
    isv_metadata_bytes = 0;
    units = iterations;
    metrics = [];
    events = [];
  }

let traced_lebench ?fuel ~seed ~scale v test =
  let t = Lebench.scaled test ~factor:scale in
  traced_execute ?fuel ~seed ~syscalls:Lebench.all_syscalls ~sequence:t.Lebench.sequence
    ~iterations:t.Lebench.iterations ~user_work:t.Lebench.user_work ~name:t.Lebench.name v

let traced_app ?fuel ~seed ~scale v app =
  let a = Apps.scaled app ~factor:scale in
  traced_execute ?fuel ~seed ~syscalls:Apps.all_syscalls ~sequence:a.Apps.request
    ~iterations:a.Apps.requests ~user_work:a.Apps.user_work ~name:a.Apps.name v

(* Swap each cell's body for [body x], where [specs] lists the cells'
   inputs in declaration order. *)
let rebody cells specs body =
  List.map2
    (fun (c : _ Supervise.cell) x -> { c with run = (fun ~fuel -> body ?fuel x) })
    cells specs

let complete matrix =
  if List.for_all (fun (_, runs) -> List.for_all Option.is_some runs) matrix then
    Some (List.map (fun (n, runs) -> (n, List.map Option.get runs)) matrix)
  else None

let perf ~name ~why ~scale ~variants ~tests ~apps ~persist =
  let setup ~traced ~seed ~dir ~jobs =
    let seed = perf_seed seed in
    let config = config ~jobs ~dir ~cache:persist ~journal:persist in
    let pairs xs = List.concat_map (fun x -> List.map (fun v -> (x, v)) variants) xs in
    let lebench = Perf.lebench_cells ~seed ~scale ~tests ~variants () in
    let apps_cells = Perf.apps_cells ~seed ~scale ~apps ~variants () in
    let lebench, apps_cells =
      if traced then
        ( rebody lebench (pairs tests) (fun ?fuel (t, v) -> traced_lebench ?fuel ~seed ~scale v t),
          rebody apps_cells (pairs apps) (fun ?fuel (a, v) -> traced_app ?fuel ~seed ~scale v a) )
      else (lebench, apps_cells)
    in
    fun () ->
      let sl = sweep ~traced ~config lebench in
      let sa = sweep ~traced ~config apps_cells in
      let tables =
        spanned traced "pv_util/render" (fun () ->
            let labels = List.map (fun v -> v.Schemes.label) variants in
            let width = List.length variants in
            let ml =
              Perf.matrix_of_sweep ~names:(List.map (fun t -> t.Lebench.name) tests) ~width sl
            in
            let ma = Perf.matrix_of_sweep ~names:(List.map (fun a -> a.Apps.name) apps) ~width sa in
            render
              ([
                 Perf_report.fig_lebench_partial ~labels ml;
                 Perf_report.fig_apps_partial ~labels ma;
               ]
              @
              match complete (ml @ ma) with
              | Some full -> [ Perf_report.fence_breakdown full; Perf_report.stall_breakdown full ]
              | None -> []))
      in
      let cells, executed, cached, restored, deduped, failed = add (tally sl) (tally sa) in
      let sim_cycles =
        List.fold_left
          (fun acc (_, r) -> match r with Some r -> acc + r.Perf.cycles | None -> acc)
          0 (sl.Supervise.results @ sa.Supervise.results)
      in
      {
        cells; executed; cached; restored; deduped; failed; sim_cycles; tables;
        digests = (fun () -> digest_results perf_digest sl @ digest_results perf_digest sa);
        replay =
          (fun ~dir ->
            let vl, el = persisted lebench sl and va, ea = persisted apps_cells sa in
            replay_persistence ~dir ~cache:persist ~journal:persist ~prefill:[]
              ~descs:(descs_of (lebench @ apps_cells)) (vl @ va) (el @ ea));
      }
  in
  { name; why; setup }

(* ------------------------------------------------------------------ *)
(* Contract matrix over many seeds                                      *)
(* ------------------------------------------------------------------ *)

let contract_seeds = 5

let contract_digest (r : Contracts.result) =
  let obs (o : Contracts.obs) =
    Printf.sprintf "%s,%s,%s,%s,%d,%d,%d" o.Contracts.commit_digest o.Contracts.event_digest
      o.Contracts.cache_digest
      (match o.Contracts.leaked with Some b -> string_of_int b | None -> "-")
      o.Contracts.hot_slots o.Contracts.spec_loads o.Contracts.fences
  in
  Checksum.digest_hex
    (String.concat "|"
       [
         r.Contracts.attack; r.Contracts.scheme; Contracts.verdict_name r.Contracts.verdict;
         String.concat "," r.Contracts.diffs; obs r.Contracts.obs_lo; obs r.Contracts.obs_hi;
       ])

let seed_prefix s = Printf.sprintf "s%d/" s

(* The attack runs inside one Contracts.check, issued directly: the same
   attack, scheme and seed offset (v1 = seed, v2 = seed+1, rsb = seed+2),
   once per planted secret, with the event ring on. *)
let attack_runs ~seed ~attack ~scheme =
  let scheme = Contracts.find_scheme scheme in
  let lo, hi = Contracts.default_secrets in
  let run secret =
    match attack with
    | "v1-index" -> ignore (V1.run ~seed ~variant:V1.Array_index ~secret ~trace:true ~scheme ())
    | "v1-ptr" -> ignore (V1.run ~seed ~variant:V1.Pointer_arith ~secret ~trace:true ~scheme ())
    | "v1-type" -> ignore (V1.run ~seed ~variant:V1.Type_confusion ~secret ~trace:true ~scheme ())
    | "v2" -> ignore (V2.run ~seed:(seed + 1) ~secret ~trace:true ~scheme ())
    | "rsb" -> ignore (Rsb.run ~seed:(seed + 2) ~secret ~trace:true ~scheme ())
    | a -> invalid_arg ("unknown attack " ^ a)
  in
  run lo;
  run hi

let contracts =
  let setup ~traced ~seed ~dir ~jobs =
    let config = config ~jobs ~dir ~cache:true ~journal:true in
    (* Seeds 1..80 were scanned without a failing cell. *)
    let seed = vetted ~scanned:(81 - contract_seeds) ~faulty:[] seed in
    let seeds = List.init contract_seeds (fun i -> seed + i) in
    let cells =
      List.concat_map
        (fun s ->
          List.map
            (fun (c : _ Supervise.cell) ->
              let c = { c with key = seed_prefix s ^ c.key } in
              if traced then in_span "pv_contracts/check" c else c)
            (Contracts.cells ~seed:s ()))
        seeds
    in
    fun () ->
      let sw = sweep ~traced ~config cells in
      let tables =
        spanned traced "pv_util/render" (fun () ->
            render
              (List.map
                 (fun s ->
                   let p = seed_prefix s in
                   let n = String.length p in
                   Contracts.matrix_table
                     (List.filter_map
                        (fun (k, r) ->
                          if String.length k > n && String.sub k 0 n = p then
                            Some (String.sub k n (String.length k - n), r)
                          else None)
                        sw.Supervise.results))
                 seeds))
      in
      let cells_n, executed, cached, restored, deduped, failed = tally sw in
      {
        cells = cells_n; executed; cached; restored; deduped; failed; sim_cycles = 0; tables;
        digests = (fun () -> digest_results contract_digest sw);
        replay =
          (fun ~dir ->
            let values, executed = persisted cells sw in
            let attacks_s =
              time (fun () ->
                  List.iter
                    (fun s ->
                      List.iter
                        (fun attack ->
                          List.iter
                            (fun scheme -> attack_runs ~seed:s ~attack ~scheme)
                            Contracts.scheme_labels)
                        Contracts.attack_names)
                    seeds)
            in
            ("attacks.run_s", attacks_s)
            :: replay_persistence ~dir ~cache:true ~journal:true ~prefill:[] ~descs:(descs_of cells)
              values executed);
      }
  in
  {
    name = "contracts-seeds";
    why =
      "250 tiny two-secret contract cells (seeds S..S+4): no machine build or planting, so \
       per-cell fixed costs (Lab build, digests, dispatch, cache store, journal append) dominate";
    setup;
  }

(* ------------------------------------------------------------------ *)
(* Open-loop service sweep (Figure 9.3-tail)                            *)
(* ------------------------------------------------------------------ *)

let service_requests = 100_000
let service_variants = [ Schemes.unsafe; Schemes.fence; Schemes.stt; Schemes.perspective ]

let cal_digest m = Checksum.digest_hex (Metrics.snapshot_to_json (Costmodel.snapshot m))
let point_digest (p : Loadsweep.point) =
  Checksum.digest_hex (Metrics.snapshot_to_json p.Loadsweep.metrics)

(* Loadsweep's string-keyed seed derivation, copied with measure_point. *)
let key_seed base s =
  String.fold_left (fun acc c -> ((acc * 131) + Char.code c) land 0x3FFFFFFF) base s

(* Step-by-step copy of Loadsweep.measure_point with a span around each
   pv_service call. *)
let traced_point ~seed ~requests ~server ~models (a : Apps.app) (v : Schemes.variant) ~load =
  let model label =
    let key = Printf.sprintf "service-cal/%s/%s" a.Apps.name label in
    match List.assoc_opt key models with
    | Some (Some m) -> m
    | Some None | None -> failwith ("no calibrated cost model for " ^ key)
  in
  let cm = model v.Schemes.label and base = model "UNSAFE" in
  let rate_rps = load *. Costmodel.capacity_rps base ~cores:server.Server.cores in
  let arrivals =
    Span.with_ "pv_service/arrivals" (fun () ->
        Arrivals.times ~seed:(key_seed seed a.Apps.name) ~mean:(2.0e9 /. rate_rps) ~n:requests)
  in
  let service =
    Span.with_ "pv_service/costmodel.sample" (fun () ->
        let rng = Rng.create (key_seed (key_seed seed a.Apps.name) v.Schemes.label) in
        Array.init requests (fun _ -> Costmodel.sample cm rng))
  in
  let r =
    Span.with_ "pv_service/server.simulate" (fun () ->
        Server.simulate ~config:server ~arrivals ~service:(fun i -> service.(i)) ())
  in
  stats.requests <- stats.requests + requests;
  Span.with_ "pv_service/latency" (fun () ->
      let pct p = Option.map (fun c -> c /. 2000.0) (Latency.percentile_opt r.Server.latency ~p) in
      let goodput_krps = Server.goodput_rps r /. 1000.0 in
      let reg = Metrics.create () in
      Metrics.set_int reg "service.offered" r.Server.offered;
      Metrics.set_int reg "service.served" r.Server.served;
      Metrics.set_int reg "service.shed" r.Server.shed;
      Metrics.set_float reg "service.load_fraction" load;
      Metrics.set_float reg "service.offered_krps" (rate_rps /. 1000.0);
      Metrics.set_float reg "service.goodput_krps" goodput_krps;
      Metrics.set_float reg "service.utilization" (Server.utilization r);
      let set_pct name p = Option.iter (Metrics.set_float reg name) (pct p) in
      set_pct "service.p50_us" 50.0;
      set_pct "service.p95_us" 95.0;
      set_pct "service.p99_us" 99.0;
      set_pct "service.p999_us" 99.9;
      Latency.observe_metrics reg ~prefix:"service.latency_cycles" r.Server.latency;
      {
        Loadsweep.app = a.Apps.name;
        scheme = v.Schemes.label;
        load;
        offered_krps = rate_rps /. 1000.0;
        p50_us = pct 50.0;
        p95_us = pct 95.0;
        p99_us = pct 99.0;
        p999_us = pct 99.9;
        goodput_krps;
        offered = r.Server.offered;
        served = r.Server.served;
        shed = r.Server.shed;
        metrics = Metrics.snapshot reg;
      })

let service =
  let apps = [ Apps.httpd; Apps.memcached ] and variants = service_variants and loads = Loadsweep.default_loads in
  let requests = service_requests and server = Server.default_config in
  let labels = List.map (fun v -> v.Schemes.label) variants in
  let setup ~traced ~seed ~dir ~jobs =
    let seed = service_seed seed in
    let config = config ~jobs ~dir ~cache:true ~journal:false in
    let cal_cells () =
      let cells = Loadsweep.calibration_cells ~seed ~apps ~variants () in
      if traced then List.map (in_span "pv_service/costmodel.calibrate") cells else cells
    in
    (* Set-up: calibrate into the fresh cache, so the timed sweep serves
       every calibration from it. *)
    let fill = sweep ~traced ~config (cal_cells ()) in
    if Supervise.failed fill > 0 then failwith "service-tail: calibration failed during set-up";
    fun () ->
      let cal_sweep, point_sweep, points =
        if traced then begin
          (* Loadsweep.run, unrolled so the point cells can be swapped. *)
          let cal = sweep ~traced ~config (cal_cells ()) in
          let models = cal.Supervise.results in
          let points =
            Loadsweep.point_cells ~seed ~requests ~server ~loads ~models ~apps ~variants ()
          in
          let specs =
            List.concat_map
              (fun a -> List.concat_map (fun v -> List.map (fun l -> (a, v, l)) loads) variants)
              apps
          in
          let points =
            rebody points specs (fun ?fuel:_ (a, v, load) ->
                traced_point ~seed ~requests ~server ~models a v ~load)
          in
          (cal, sweep ~traced ~config points, points)
        end
        else
          let o = Loadsweep.run ~config ~seed ~requests ~server ~loads ~apps ~variants () in
          (o.Loadsweep.cal_sweep, o.Loadsweep.point_sweep, [])
      in
      let tables =
        spanned traced "pv_util/render" (fun () ->
            render
              [
                Loadsweep.table ~server ~requests ~apps ~labels ~loads point_sweep;
                Loadsweep.knee_table ~apps ~labels ~loads point_sweep;
              ])
      in
      let cells, executed, cached, restored, deduped, failed =
        add (tally cal_sweep) (tally point_sweep)
      in
      {
        cells; executed; cached; restored; deduped; failed; sim_cycles = 0; tables;
        digests =
          (fun () -> digest_results cal_digest cal_sweep @ digest_results point_digest point_sweep);
        replay =
          (fun ~dir ->
            let cals = cal_cells () in
            let prefill = snd (persisted cals fill) in
            let values, executed = persisted points point_sweep in
            (* The timed sweep looked up every calibration (hits) and every
               point (misses), then stored the points. *)
            replay_persistence ~dir ~cache:true ~journal:false ~prefill
              ~descs:(descs_of cals @ descs_of points) values executed);
      }
  in
  {
    name = "service-tail";
    why =
      "open-loop load points over calibrations served from the cache: the cycle loop runs \
       only in set-up, so the timed region is pv_service event simulation, exact percentiles \
       and cache reads";
    setup;
  }

(* ------------------------------------------------------------------ *)
(* Registry                                                             *)
(* ------------------------------------------------------------------ *)

(* The perf rows: three LEBench tests and one app whose mean cell cost is
   within 3% of the full 23-row matrix's, so a rep stays a few seconds long
   while the split between cycle loop, planting and machine build is kept. *)
let perf_tests = List.map Lebench.find [ "ref"; "mmap"; "select" ]
let perf_apps = [ Apps.httpd ]

let perf_quick =
  perf ~name:"perf-quick"
    ~why:
      "the --quick perf matrix (scale 0.3) on 4 rows x all 11 variants: host time splits between \
       the cycle loop, gadget planting and kernel-image build; cells are cached and journaled"
    ~scale:0.3 ~variants:Schemes.everything ~tests:perf_tests ~apps:perf_apps ~persist:true

let cycle_bound =
  perf ~name:"cycle-bound"
    ~why:
      "the same rows at full scale over the 7 variants that never plant gadgets, uncached: the \
       cycle loop dominates, so a per-cell set-up change should leave it unchanged"
    ~scale:1.0
    ~variants:
      Schemes.[ unsafe; fence; perspective; dom; stt; safespec; specbox ]
    ~tests:perf_tests ~apps:perf_apps ~persist:false

let all = [ perf_quick; cycle_bound; contracts; service ]

let names = List.map (fun w -> w.name) all

let find name = List.find_opt (fun w -> w.name = name) all
