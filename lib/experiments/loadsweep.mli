(** "Figure 9.3-tail": load-latency curves for the datacenter apps under
    each defense scheme.

    The paper's Figure 9.3 (and our {!Perf} reproduction of it) reports only
    average throughput of a closed request loop.  This experiment serves the
    same apps from an {e open-loop} arrival process through the
    {!Pv_service} subsystem instead: per-(app, scheme) service times are
    calibrated from real cycle-level runs ({!Pv_service.Costmodel}), offered
    load sweeps a fraction of the app's UNSAFE saturation throughput, and
    each (app, scheme, load) point reports exact nearest-rank p50/p95/p99/
    p99.9 sojourn times, goodput and the shed fraction of a bounded-queue
    multi-core server model.

    Both phases run as supervised cells — keys [service-cal/<app>/<scheme>]
    and [service/<app>/<scheme>/<load>] — so sweeps checkpoint, resume and
    degrade per cell like every other experiment, and all output obeys the
    byte-identity-for-any-[-j] contract. *)

module Costmodel = Pv_service.Costmodel
module Server = Pv_service.Server

type point = {
  app : string;
  scheme : string;
  load : float;  (** offered load as a fraction of UNSAFE capacity *)
  offered_krps : float;
  p50_us : float option;
      (** [None] = nothing was served (an all-shed overload point has no
          latency distribution); the table renders [n/a] *)
  p95_us : float option;
  p99_us : float option;
  p999_us : float option;
  goodput_krps : float;
  offered : int;
  served : int;
  shed : int;
  metrics : Pv_util.Metrics.snapshot;
}

val default_loads : float list
(** [0.3; 0.5; 0.7; 0.85; 0.95; 1.1; 1.3] — straddles every scheme's knee. *)

val calibration_cells :
  ?seed:int ->
  ?points:int ->
  apps:Pv_workloads.Apps.app list ->
  variants:Schemes.variant list ->
  unit ->
  Costmodel.t Supervise.cell list
(** One cell per (app, variant), keyed [service-cal/<app>/<label>]; the
    supervisor's fuel budget bounds each calibration run. *)

val point_cells :
  ?seed:int ->
  ?points:int ->
  ?requests:int ->
  ?server:Server.config ->
  loads:float list ->
  models:(string * Costmodel.t option) list ->
  apps:Pv_workloads.Apps.app list ->
  variants:Schemes.variant list ->
  unit ->
  point Supervise.cell list
(** One cell per (app, variant, load), keyed [service/<app>/<label>/<load>]
    ([load] printed as [%.2f]).  [models] is the calibration sweep's
    [results]; a point whose own or UNSAFE model is missing fails with a
    structured error (degrading to a [FAILED] table entry).  Arrival seeds
    depend only on (seed, app) and service-draw seeds only on (seed, app,
    scheme), so all loads of a curve share common random numbers and every
    scheme of an app sees the same arrival pattern.  [points] is only used
    to key the result cache (a point's value depends on the calibration,
    which [points] pins transitively) — pass the value the models were
    calibrated with, as {!run} does.  Raises [Invalid_argument] if
    [variants] lacks UNSAFE, or [loads] is empty, holds a load that is not
    positive and finite, or two loads that print alike at [%.2f] (one key
    twice). *)

type outcome = {
  cal_sweep : Costmodel.t Supervise.sweep;
  point_sweep : point Supervise.sweep;
}

val run :
  ?config:Supervise.config ->
  ?seed:int ->
  ?points:int ->
  ?requests:int ->
  ?server:Server.config ->
  ?loads:float list ->
  apps:Pv_workloads.Apps.app list ->
  variants:Schemes.variant list ->
  unit ->
  outcome
(** Calibrate, then sweep: two supervised runs sharing [config] (and hence
    its checkpoint — the descriptor families [service-cal] and [service]
    are disjoint). *)

val table :
  ?server:Server.config ->
  ?requests:int ->
  apps:Pv_workloads.Apps.app list ->
  labels:string list ->
  loads:float list ->
  point Supervise.sweep ->
  Pv_util.Tab.t
(** The load-latency table: one row per (app, scheme, load), failed cells
    rendered as [FAILED]. *)

val knee_table :
  apps:Pv_workloads.Apps.app list ->
  labels:string list ->
  loads:float list ->
  point Supervise.sweep ->
  Pv_util.Tab.t
(** Saturation summary per (app, scheme): the knee (highest offered load
    with shed fraction <= 1%) and the overload behaviour at the top load
    point. *)

val exports : ?elapsed:float -> outcome -> Supervise.exported list
(** The [--metrics] payload: the calibration sweep (cost-model snapshots)
    and the point sweep (per-point latency/goodput metrics). *)

val exit_code : outcome -> int
