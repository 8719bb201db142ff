(** Per-(app, scheme) service-time calibration for the request-serving
    simulator.

    The datacenter models ({!Pv_workloads.Apps}) are closed request loops;
    this module turns them into a {e service-time distribution} by running a
    sample of real requests through the cycle-level stack
    ({!Pv_sim.Machine.run_job}) and bucketing the per-request cycle costs:
    for each of [points] seeds (drawn from a SplitMix64 stream of the base
    seed) it measures a short run and a longer run of the same machine and
    takes the marginal cycles per request between them — isolating the
    steady-state request cost from image build, warmup and profiling.

    A model is plain marshalable data, so calibration runs as a supervised
    sweep cell (key [service-cal/<app>/<scheme>]) and is checkpointed and
    cached like any other measurement. *)

type t = {
  app : string;
  scheme : string;  (** scheme label, e.g. ["FENCE"] *)
  samples : float array;  (** per-request service cycles, ascending, all > 0 *)
  mean_cycles : float;
}

val calibrate :
  ?seed:int ->
  ?points:int ->
  ?warm:int ->
  ?chunk:int ->
  ?block_unknown:bool ->
  ?fuel:int ->
  scheme:Perspective.Defense.scheme ->
  label:string ->
  Pv_workloads.Apps.app ->
  t
(** [calibrate ~scheme ~label app] builds the model from [points] sample
    pairs (default 4): each pair runs the app's request loop for [warm]
    requests (default 4) and for [warm + chunk] requests (default [chunk =
    8]) on the same machine seed, contributing [(cycles(warm+chunk) -
    cycles(warm)) / chunk] as one service-time sample.  [fuel] is the
    supervisor's per-run cycle budget ({!Pv_sim.Machine.Run_timeout} on
    exhaustion).  Deterministic for a fixed seed.  Raises
    [Invalid_argument] when [points], [warm] or [chunk] is not positive. *)

val sample : t -> Pv_util.Rng.t -> float
(** Draw one service time: a uniform seeded pick from the empirical
    samples. *)

val capacity_rps : t -> cores:int -> float
(** Saturation throughput in requests per simulated second at 2 GHz:
    [cores * 2e9 / mean_cycles]. *)

val snapshot : t -> Pv_util.Metrics.snapshot
(** Deterministic metric snapshot of the model (sample count, mean, min and
    max service cycles, log2 histogram of the samples) — the calibration
    sweep's [--metrics] payload. *)
