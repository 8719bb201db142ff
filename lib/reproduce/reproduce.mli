(** The evaluation's sections, each implemented once.

    The CLI's per-experiment subcommands ([surface], [security],
    [contracts], [sensitivity], [perf], [service]) call these runners with
    their flags.  [perspective reproduce] ({!run}) calls the same runners
    with the harness's inputs, frames each section with a
    [###### [label] title ######] header, and adds the tables that combine
    several sweeps.  So no table has two implementations. *)

type t
(** One command's run: its sweep config, which sections it prints, and
    whether any of its sweeps had a failed cell. *)

val sections : (t -> unit) -> Pv_experiments.Supervise.config -> int
(** [sections f config] runs a subcommand's sections [f] (all of them,
    without headers) and returns its exit code: [1] if a sweep had a failed
    cell, else [0]. *)

(** {1 Sections shared with the subcommands}

    Each runs its sweeps under the run's config, reports them on stderr
    and prints its tables on stdout. *)

val surface : t -> seed:int -> unit
(** Tables 8.1 and 8.2 and Figure 9.1 from one ISV study; the study is
    built only if one of the three sections is selected. *)

val pocs :
  t -> Pv_experiments.Security.poc list Pv_experiments.Supervise.cell list -> unit
(** The Chapter 8 PoC verdict table. *)

val contracts :
  t ->
  ?attacks:string list ->
  ?schemes:string list ->
  ?csv:string ->
  Pv_contracts.Contracts.result Pv_experiments.Supervise.cell list ->
  unit
(** The leakage-contract matrix, also saved to the [csv] file. *)

val cache_size : t -> seed:int -> scale:float -> unit
(** The view-cache capacity study as a sweep of its own, ["cache-size"]. *)

val perf_matrices :
  t ->
  seed:int ->
  scale:float ->
  variants:Pv_experiments.Schemes.variant list ->
  tests:Pv_workloads.Lebench.test list ->
  apps:Pv_workloads.Apps.app list ->
  ?extra:Pv_experiments.Perf.run Pv_experiments.Supervise.cell list ->
  ?metrics:string ->
  ?trace_dir:string ->
  unit ->
  (string * Pv_experiments.Perf.run option list) list
  * (string * Pv_experiments.Perf.run option list) list
  * (string * Pv_experiments.Perf.run option) list
(** The LEBench and app matrices, then the [extra] cells, as one sweep
    ["perf"], so a simulation that several of them declare runs once.
    Returns both matrices (a suite with no workloads gives [[]]) and the
    sweep's whole result list, which the [extra] cells are read from by
    key.  [metrics] receives the two matrices' export, as sweeps
    ["lebench"] and ["apps"], and with [trace_dir] every matrix cell is
    traced into one JSONL file per cell key. *)

val service :
  t ->
  seed:int ->
  requests:int ->
  ?points:int ->
  server:Pv_experiments.Loadsweep.Server.config ->
  loads:float list ->
  apps:Pv_workloads.Apps.app list ->
  variants:Pv_experiments.Schemes.variant list ->
  ?csv:string ->
  ?metrics:string ->
  unit ->
  unit
(** Figure 9.3-tail: the load-latency table (also saved to [csv]) and the
    knee table; [metrics] receives both sweeps' export. *)

(** {1 The full reproduction} *)

val labels : string list
(** The 14 section labels [--only] accepts. *)

val sweep_keys : scale:float -> (string * (string * string option) list) list
(** Every sweep {!run} declares at [scale], with the key and descriptor of
    each of its cells.  The sweeps share one [--checkpoint] store, which
    serves a cell by its descriptor and unmarshals it at its sweep's value
    type, so no descriptor family may appear in two sweeps.  The ["perf"]
    sweep holds the families [perf/lebench] and [perf/apps], both valued
    {!Pv_experiments.Perf.run}; every other sweep holds one family. *)

val run :
  config:Pv_experiments.Supervise.config ->
  scale:float ->
  ?only:string ->
  ?csv:string ->
  ?metrics:string ->
  ?trace_dir:string ->
  unit ->
  int
(** Print every section (or only [only]) and return the exit code.  Seeds
    are 7 for the PoCs and contracts and 42 elsewhere; the service curves
    take [requests] and [points] from [scale], and the unknown-allocation
    and capacity studies, which run in the perf sweep, cap it at 0.5 and
    0.6.  [csv] is a directory, created if missing, for the Figure 9.2, 9.3
    and 9.3-tail and contract tables.  [metrics] and [trace_dir] cover the
    performance matrices, and a run declares only the matrices its
    sections read: [only = "fig-9.2"] runs and exports the LEBench matrix
    alone. *)
