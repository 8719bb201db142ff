(** Cycle-level performance runs: the measurement engine behind Figures 9.2
    and 9.3, Table 10.1 and the §9.2 sensitivity studies.

    Each run builds a fresh machine (so no microarchitectural state leaks
    between schemes), functionally profiles the workload to feed dynamic
    ISVs, plants the gadget corpus (for ISV++), installs the defense variant
    and executes the workload's driver on the pipeline. *)

type run = {
  label : string;
  workload : string;
  cycles : int;
  committed : int;
  counters : Pv_uarch.Pipeline.counters;
  kernel_cycle_fraction : float;
  isv_hit_rate : float option;
      (** [None] when the ISV cache was never accessed (e.g. UNSAFE) —
          distinct from [Some 0.], a 100%-miss cache *)
  dsv_hit_rate : float option;
  slab_utilization : float;
  slab_frees : int;
  slab_page_returns : int;
  isv_pages_populated : int;  (** demand-populated ISV metadata pages *)
  isv_metadata_bytes : int;
  units : int;  (** iterations (LEBench) or requests (apps) *)
  metrics : Pv_util.Metrics.snapshot;
      (** the cell's full telemetry ([pipeline.*], [svcache.*],
          [slab.secure.*], [isv_pages.*], [workload.*]) — pure function of
          the job inputs, so byte-identical for any [-j] *)
  events : Pv_uarch.Pipeline.event list;
      (** cycle-stamped trace, [[]] unless the run was traced *)
}

val fences_per_kiloinstr : run -> float * float
(** (ISV, DSV) fences per thousand committed kernel instructions. *)

val run_lebench :
  ?seed:int ->
  ?scale:float ->
  ?block_unknown:bool ->
  ?view_cache_entries:int ->
  ?fuel:int ->
  ?trace:bool ->
  ?on_commit:(int -> int -> Pv_isa.Insn.t -> unit) ->
  Schemes.variant ->
  Pv_workloads.Lebench.test ->
  run
(** [fuel] bounds the run's cycles (default: the machine watchdog); a run
    that exhausts it raises {!Pv_sim.Machine.Run_timeout}.  [trace] turns on
    the pipeline's bounded event ring and fills the run's [events].
    [on_commit] observes the architectural commit stream (equivalence
    suite). *)

val run_app :
  ?seed:int ->
  ?scale:float ->
  ?block_unknown:bool ->
  ?view_cache_entries:int ->
  ?fuel:int ->
  ?trace:bool ->
  ?on_commit:(int -> int -> Pv_isa.Insn.t -> unit) ->
  Schemes.variant ->
  Pv_workloads.Apps.app ->
  run

(** {1 Supervised sweeps}

    A perf cell is one simulation for {!Supervise.run}; a failing cell
    degrades to a [None] entry instead of aborting the sweep.  Keys
    ({!cell_key}, the prefix defaulting to ["lebench"] or ["apps"]) name
    the rows; descriptors ([perf/lebench|...], [perf/apps|...]) key the
    checkpoint and the cache.  Only a Perspective variant reads
    [block_unknown] and [view_cache_entries]; any other runs and is keyed
    at their defaults, so cells that differ only in knobs their variant
    ignores share one simulation per sweep. *)

val cell_key : prefix:string -> string -> Schemes.variant -> string
(** [cell_key ~prefix workload v], ["<prefix>/<workload>/<label>"], keys
    [v]'s cell on [workload]; a study reads its runs back by it. *)

val lebench_cells :
  ?seed:int ->
  ?scale:float ->
  ?block_unknown:bool ->
  ?view_cache_entries:int ->
  ?trace:bool ->
  ?prefix:string ->
  ?tests:Pv_workloads.Lebench.test list ->
  variants:Schemes.variant list ->
  unit ->
  run Supervise.cell list
(** Row-major (test outer, variant inner). *)

val apps_cells :
  ?seed:int ->
  ?scale:float ->
  ?block_unknown:bool ->
  ?view_cache_entries:int ->
  ?trace:bool ->
  ?prefix:string ->
  ?apps:Pv_workloads.Apps.app list ->
  variants:Schemes.variant list ->
  unit ->
  run Supervise.cell list

val matrix_of_sweep :
  names:string list ->
  width:int ->
  run Supervise.sweep ->
  (string * run option list) list
(** Reassemble a sweep of {!lebench_cells}/{!apps_cells} into matrix shape;
    failed cells are [None]. *)

val complete_matrix : (string * run option list) list -> (string * run list) list option
(** The matrix with every cell present, or [None] if any cell failed — the
    input of the renderers that need every run (Table 10.1, the 9.1
    comparison, the 9.2 sensitivity tables). *)

val overhead_pct : baseline:run -> run -> float
(** Execution-time overhead vs the baseline run. *)

val normalized_latency : baseline:run -> run -> float

val normalized_throughput : baseline:run -> run -> float
(** Requests/second normalized: baseline cycles / run cycles. *)
