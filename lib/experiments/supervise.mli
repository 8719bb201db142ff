(** Supervised experiment sweeps: fault-tolerant, checkpointed, resumable.

    A sweep is a list of {e cells} — self-contained measurement jobs with a
    stable string key (e.g. ["lebench/select/PERSPECTIVE"]).  {!run} executes
    them on a {!Pv_util.Pool} via [map_results], so a raising, poisoned or
    livelocked cell degrades to a per-cell failure instead of aborting the
    sweep; completed cells are checkpointed to a {!Pv_util.Journal} as they
    finish, and a [resume] run serves checkpointed cells from the journal and
    executes only the rest.

    Determinism: cell values are pure functions of their inputs, fault
    injection is keyed on the cell's index, and results are merged in
    declaration order — so for a fixed fault plan the sweep's outcome (up to
    wall-clock fields) is identical for every worker count, and a resumed
    sweep converges to exactly the table an uninterrupted run produces. *)

type 'a cell = {
  key : string;  (** stable identity: also the checkpoint-journal key *)
  cache : string option;
      (** canonical input descriptor for the persistent result cache: a
          string spelling out {e every} input of the measurement, such that
          equal descriptors imply equal results.  [None] = never cached. *)
  run : fuel:int option -> 'a;
      (** the measurement; [fuel] is the cycle budget the supervisor imposes
          ([None] = the simulator's own default watchdog) *)
}

val cell : ?cache:string -> string -> (fuel:int option -> 'a) -> 'a cell

type failure = {
  key : string;
  attempts : int;
  elapsed : float;  (** wall clock, informational only *)
  reason : string;  (** deterministic rendering of the final exception *)
}

type 'a sweep = {
  results : (string * 'a option) list;
      (** every cell in declaration order; [None] = failed *)
  failures : failure list;  (** declaration order *)
  restored : int;  (** cells served from the checkpoint journal *)
  cached : int;  (** cells served from the persistent result cache *)
  deduped : int;
      (** cells aliased to another cell with the same descriptor this run *)
  executed : int;  (** cells actually run by this invocation *)
}

type config = {
  jobs : int;  (** pool size; [1] is the exact serial path *)
  retries : int;  (** extra attempts for transient failures *)
  fault : Pv_util.Fault.t;  (** deterministic fault injection *)
  max_cycles : int option;  (** per-cell cycle budget ([None]: default) *)
  livelock_fuel : int;
      (** the starved budget given to a [Livelock]-faulted cell so the
          pipeline watchdog fires quickly *)
  checkpoint : string option;  (** journal path; [None] disables *)
  resume : bool;  (** serve already-journaled cells from the checkpoint *)
  cache : Pv_util.Rescache.t option;
      (** persistent result cache; cells with a descriptor consult it before
          running and store their results after *)
  workers : int;
      (** [> 1]: execute runnable cells on a {!Pv_util.Procpool} of worker
          {e processes} (spawned by re-exec; requires
          [Procpool.set_reexec_argv], else falls back to the in-process
          pool with a warning).  Workers survive SIGKILL injection
          ([--fault kill@i]): dead workers are respawned (at most 8 times
          per sweep), each keeps a crash-safe journal that the coordinator
          folds into the checkpoint, and results are byte-identical to
          [workers = 1] up to wall-clock fields. *)
  pool_stats : bool;
      (** print the in-process pool's scheduler counters (local pops,
          steals, failed steals, parks, unparks) to stderr after the sweep.
          Stderr-only by design: the counts depend on runtime interleaving,
          so they are excluded from every byte-identity artifact. *)
}

val default : config
(** [jobs = 1], [retries = 0], no fault, no cycle override, no checkpoint,
    no cache, [workers = 1], [pool_stats = false]. *)

val run : ?config:config -> 'a cell list -> 'a sweep
(** Execute the sweep under supervision.  Cell keys must be unique.  With a
    checkpoint configured, each completed cell is appended (and flushed) from
    the domain that ran it, so a crash or Ctrl-C loses at most in-flight
    cells; the journal file is opened in append mode — callers starting a
    {e fresh} checkpointed sweep should remove a stale file first (the CLI
    does this when [--resume] is not given).

    Ordering with a cache configured: checkpoint-restored cells are served
    first, then result-cache hits (counted [cached]; they skip fault
    injection and retries entirely — a cache hit never becomes pool work),
    then cells whose descriptor equals an earlier cell's this run are
    aliased to it (counted [deduped]; one simulation, many rows), and only
    the remainder executes on the pool.  Fault-plan indices refer to
    positions in that remainder.  Cache hits and aliases are journaled too,
    so a later [--resume] works without the cache.  The table a sweep
    produces is byte-identical whether its cells were executed, restored,
    cached or deduped — provenance shows up only in {!report} and
    {!sweep} counts. *)

val failed : _ sweep -> int
(** Number of failed cells. *)

val exit_code : _ sweep list -> int
(** [0] if every sweep is clean, [1] if any had failed cells — the CLI's
    degraded-run signal. *)

val report : ?out:out_channel -> label:string -> _ sweep -> unit
(** Print the failure report (one summary line; one line per failed cell)
    to [out] (default [stderr]). *)

(** {1 Telemetry export}

    A sweep's per-cell metric snapshots plus a sweep-level summary
    (cell/failed counts and a log2 histogram of per-cell
    [pipeline.cycles]), rendered as deterministic JSON for [--metrics].
    Provenance counts (restored/cached/deduped/executed) are deliberately
    absent — they differ between a cold and a warm run of the same sweep,
    and the export must be byte-identical across both; read them from
    {!report} / the {!sweep} record instead.  The only wall-clock datum is
    the optional [elapsed] seconds, which renders as an ["elapsed_s"] member
    on its own line so byte-identity checks can strip it (e.g.
    [grep -v '"elapsed_s"']); everything else is identical for any [-j]. *)

type exported = {
  label : string;  (** sweep name, e.g. ["lebench"] *)
  cells : (string * Pv_util.Metrics.snapshot option) list;
      (** declaration order; [None] = the cell failed *)
  summary : Pv_util.Metrics.snapshot;
}

val export :
  ?elapsed:float ->
  metrics_of:('a -> Pv_util.Metrics.snapshot) ->
  label:string ->
  'a sweep ->
  exported

val export_cells :
  ?elapsed:float ->
  label:string ->
  (string * Pv_util.Metrics.snapshot option) list ->
  exported
(** Build an export directly from keyed snapshots (for unsupervised
    matrices). *)

val render_json : exported list -> string
(** The [--metrics] JSON document ([{"sweeps": {<label>: {"summary": ...,
    "cells": ...}}}]), deterministic bytes. *)

val write_json : file:string -> exported list -> unit
