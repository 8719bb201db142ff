(* Every metric the benchmark reports, with its unit, direction and, for an
   end-to-end metric, the bound by which its median may worsen before a
   change counts as a regression.  A per-layer metric also names the layer
   it measures, the end-to-end metrics it should move and the workloads it
   should move them on.  [exported] metrics are the ones BENCHMARK.json
   lists; they must be defined on every workload.  `e2e.exe check` holds
   BENCHMARK.json to this file.

   Host-time bounds are wide because the host is: on the shared 2-vCPU
   machine the benchmark was built on, CPU speed alternates between phases
   up to 1.6x apart that last as long as a run or longer, so the median of
   a run moves 6-20% (interquartile range over median, ten runs) with no
   code change.  setup_s carries the largest bound. *)

type better = Lower | Higher

let better_name = function Lower -> "lower" | Higher -> "higher"

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float;  (** end-to-end only: allowed worsening of the median, as a share *)
  floor : float;
      (** end-to-end only: the allowed worsening is never less than this, in
          the metric's unit; BENCHMARK.json carries only [bound] *)
  scope : string list;  (** workloads the metric is defined on; [[]] = all *)
  exported : bool;
  layer : string;  (** per-layer only: the library it measures *)
  moves : string list;  (** per-layer only: end-to-end metrics it should move *)
  on : string list;  (** per-layer only: workloads it should move them on *)
  doc : string;
}

let perf = [ "perf-quick"; "cycle-bound" ]

let e2e ?(scope = []) ?(exported = true) ?(floor = 0.0) name unit_ better bound doc =
  { name; unit_; better; bound; floor; scope; exported; layer = ""; moves = []; on = []; doc }

let end_to_end =
  [
    e2e "wall_s" "s" Lower 0.24 "drive READY -> DONE";
    (* A few milliseconds of process start-up jitter by more than 25%
       between reps, so compare allows at least 20 ms. *)
    e2e ~floor:0.02 "setup_s" "s" Lower 0.25 "spawn -> drive READY";
    e2e "cpu_s" "s" Lower 0.24 "drive user+sys, READY -> DONE";
    e2e "peak_rss_mb" "MiB" Lower 0.15 "drive VmHWM at DONE";
    e2e "cells_per_s" "1/s" Higher 0.24 "executed cells / wall_s";
    e2e ~scope:perf ~exported:false "sim_mcps" "Mcycles/s" Higher 0.24
      "simulated Mcycles / wall_s";
    (* Not in BENCHMARK.json: it is zero on a correct run, and the `bench`
       result line carries it as the failed and attempted counts. *)
    e2e ~exported:false "failed_frac" "ratio" Lower 0.0 "failed or differing cells / attempted";
  ]

let layer_metric ?(scope = []) ?(exported = false) ~layer ~moves ~on name unit_ better doc =
  { name; unit_; better; bound = 0.0; floor = 0.0; scope; exported; layer; moves; on; doc }

let layers =
  [
    "pv_uarch"; "pv_sim"; "pv_scanner"; "perspective"; "pv_attacks"; "pv_contracts"; "pv_service";
    "pv_experiments"; "pv_util";
  ]

(* Layers that own spans in the traced pass, each reported as its share of
   the traced wall time. *)
let span_layers =
  [ "pv_uarch"; "pv_sim"; "pv_scanner"; "pv_contracts"; "pv_service"; "pv_experiments"; "pv_util" ]

let share_moves = function
  | "pv_uarch" -> ([ "wall_s" ], [ "cycle-bound"; "perf-quick" ])
  | "pv_sim" -> ([ "wall_s"; "cpu_s" ], [ "perf-quick"; "cycle-bound" ])
  | "pv_scanner" -> ([ "wall_s"; "cpu_s" ], [ "perf-quick" ])
  | "pv_contracts" -> ([ "wall_s"; "cells_per_s" ], [ "contracts-seeds" ])
  | "pv_service" -> ([ "wall_s" ], [ "service-tail" ])
  | "pv_experiments" -> ([ "wall_s"; "cells_per_s" ], [ "contracts-seeds" ])
  | _ -> ([ "wall_s" ], [ "perf-quick"; "contracts-seeds"; "service-tail" ])

let per_layer =
  let m = layer_metric in
  let uarch = m ~scope:perf ~layer:"pv_uarch" ~moves:[ "wall_s"; "sim_mcps" ] ~on:perf in
  let sim = m ~scope:perf ~layer:"pv_sim" ~moves:[ "wall_s"; "cpu_s" ] ~on:perf in
  let scanner =
    m ~scope:[ "perf-quick" ] ~layer:"pv_scanner" ~moves:[ "wall_s"; "cpu_s" ] ~on:[ "perf-quick" ]
  in
  let svcache = m ~scope:perf ~layer:"perspective" ~moves:[] ~on:[] in
  let contracts = [ "contracts-seeds" ] in
  let attacks layer = m ~scope:contracts ~layer ~moves:[ "wall_s"; "cells_per_s" ] ~on:contracts in
  let tail = [ "service-tail" ] in
  let service = m ~scope:tail ~layer:"pv_service" ~moves:[ "wall_s" ] ~on:tail in
  let sup =
    m ~layer:"pv_experiments" ~moves:[ "wall_s" ] ~on:[ "contracts-seeds"; "cycle-bound" ]
  in
  let persisted = [ "perf-quick"; "contracts-seeds"; "service-tail" ] in
  let journaled = [ "perf-quick"; "contracts-seeds" ] in
  let util ?(scope = persisted) ?(on = journaled) ?(exported = false) name unit_ better doc =
    m ~scope ~exported ~layer:"pv_util" ~moves:[ "cells_per_s"; "wall_s" ] ~on name unit_ better doc
  in
  [
    uarch "pipeline.run_s" "s" Lower "host seconds in Machine.run (the cycle loop)";
    uarch "pipeline.ns_per_cycle" "ns" Lower "pipeline.run_s per simulated cycle";
    uarch "pipeline.sim_cycles" "count" Lower "simulated cycles";
    uarch "pipeline.committed" "count" Higher "committed instructions";
    uarch "pipeline.ipc" "ratio" Higher "committed / simulated cycles";
    uarch "pipeline.squashes_per_kcycle" "ratio" Lower "squashes per 1000 simulated cycles";
    uarch "pipeline.stall_frac" "ratio" Lower "zero-commit cycles / simulated cycles";
    sim "machine.create_s" "s" Lower "Machine.create: kernel and kernel-image build";
    sim "machine.freeze_s" "s" Lower "Machine.add_process + freeze: program, memory, pipeline";
    sim "machine.profile_s" "s" Lower "Machine.profile: functional profiling for dynamic ISVs";
    sim "machine.install_defense_s" "s" Lower
      "Machine.install_defense: ISV generation (pv_isvgen) and Defense.build";
    sim "machine.setup_frac" "ratio" Lower "per-cell set-up seconds / (set-up + pipeline.run_s)";
    scanner "scanner.plant_s" "s" Lower "Gadgets.plant (PERSPECTIVE++ cells only)";
    scanner "scanner.plant_calls" "count" Lower "Gadgets.plant calls";
    svcache "svcache.lookups" "count" Lower "simulated ISV + DSV view-cache lookups";
    svcache "svcache.isv_hit_rate" "ratio" Higher "simulated ISV view-cache hit rate";
    svcache "svcache.dsv_hit_rate" "ratio" Higher "simulated DSV view-cache hit rate";
    attacks "pv_attacks" "attacks.run_s" "s" Lower
      "the contract cells' attack runs, issued directly after the pass";
    attacks "pv_contracts" "contracts.check_s" "s" Lower "Contracts.check";
    attacks "pv_contracts" "contracts.observe_s" "s" Lower "contracts.check_s - attacks.run_s";
    service "service.arrivals_s" "s" Lower "Arrivals.times";
    service "service.sample_s" "s" Lower "Costmodel.sample over every request";
    service "service.server_s" "s" Lower "Server.simulate";
    service "service.latency_s" "s" Lower "percentiles and the point's metric snapshot";
    service "service.requests_per_s" "1/s" Higher "simulated requests / pv_service seconds";
    m ~scope:tail ~layer:"pv_service" ~moves:[ "setup_s" ] ~on:tail "service.calibration_s" "s"
      Lower "Costmodel.calibrate in set-up";
    sup ~exported:true "supervise.run_s" "s" Lower "Supervise.run";
    sup ~exported:true "supervise.busy_s" "s" Lower "time inside executed cells";
    sup ~exported:true "supervise.overhead_s" "s" Lower
      "supervise.run_s - supervise.busy_s: cache lookups and stores, journal appends, dispatch";
    sup ~exported:true "supervise.cell_ms_p50" "ms" Lower "median executed cell";
    sup ~exported:true "supervise.cell_ms_p90" "ms" Lower "90th percentile executed cell";
    sup ~exported:true "supervise.cell_ms_max" "ms" Lower "slowest executed cell";
    sup "supervise.executed" "count" Lower "cells executed";
    sup "supervise.cached" "count" Lower "cells served from the result cache";
    sup "supervise.restored" "count" Lower "cells served from the checkpoint";
    sup "supervise.deduped" "count" Lower "cells aliased to an identical cell";
    util ~scope:[] ~on:[ "contracts-seeds"; "cycle-bound" ] ~exported:true "pool.efficiency" "ratio"
      Higher "supervise.busy_s / (2 x the wall time of an untraced drive at -j 2)";
    util ~on:[ "service-tail" ] "rescache.find_s" "s" Lower
      "Rescache.find calls of the pass, replayed";
    util "rescache.store_s" "s" Lower "Rescache.store calls of the pass, replayed";
    util "rescache.bytes_written" "bytes" Lower "bytes the timed region added to the cache";
    util ~scope:journaled "journal.append_s" "s" Lower "Journal.append calls of the pass, replayed";
    util ~scope:journaled "journal.bytes" "bytes" Lower "checkpoint journal size";
    util ~scope:[] ~on:[ "contracts-seeds" ] ~exported:true "render_s" "s" Lower
      "rendering the workload's tables";
    util ~scope:[] ~on:[] "trace.overhead_frac" "ratio" Lower
      "traced wall / untraced wall_s - 1";
  ]
  @ List.map
      (fun layer ->
        let moves, on = share_moves layer in
        m ~exported:true ~layer ~moves ~on (layer ^ ".wall_pct") "%" Lower
          ("self time of " ^ layer ^ " spans / traced wall"))
      span_layers

let all = end_to_end @ per_layer

let find name = List.find_opt (fun m -> m.name = name) all

let applies m workload = m.scope = [] || List.mem workload m.scope
