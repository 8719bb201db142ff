(** Supervised experiment sweeps: fault-tolerant, checkpointed, resumable.

    A sweep is a list of {e cells} — self-contained measurement jobs with a
    stable string key (e.g. ["lebench/select/PERSPECTIVE"]).  {!run} executes
    them in the calling process at [jobs = 1] and on {!Pv_util.Procpool}
    worker processes above it.  Every attempt at a cell goes through one
    function, which realizes the {!Pv_util.Fault} plan and classifies a
    failure: {!Pv_util.Fault.Crashed} and {!Pv_util.Fault.Killed} are
    transient and retried up to [retries] times, anything else is
    permanent.  A raising, poisoned or livelocked cell thus degrades to a
    per-cell failure instead of aborting the sweep, and reports the same
    failure at every [jobs].  Completed cells are stored, under their
    canonical input descriptor, in a {!Pv_util.Rescache} checkpoint
    directory as they finish, and a [resume] run serves stored cells from
    it and executes only the rest.  A cell is served only for the inputs it
    was measured with: a changed seed, scale or code salt changes the
    descriptor or the salt, and the cell runs again.

    Determinism: cell values are pure functions of their inputs, fault
    injection is keyed on the cell's index, and results are merged in
    declaration order — so for a fixed fault plan the sweep's outcome is
    identical for every [jobs], and a resumed sweep converges to exactly
    the table an uninterrupted run produces. *)

type 'a cell = {
  key : string;  (** stable identity within the sweep: names its table row *)
  cache : string option;
      (** canonical input descriptor: a string spelling out {e every} input
          of the measurement, such that equal descriptors imply equal
          results.  It keys the cell in the checkpoint and the result cache.
          [None] = never checkpointed, never cached; every cell the library
          declares has one. *)
  run : fuel:int option -> 'a;
      (** the measurement; [fuel] is the cycle budget the supervisor imposes
          ([None] = the simulator's own default watchdog) *)
}

val cell : ?cache:string -> string -> (fuel:int option -> 'a) -> 'a cell

type failure = {
  key : string;
  attempts : int;
  reason : string;  (** deterministic rendering of the final exception *)
}

type 'a sweep = {
  results : (string * 'a option) list;
      (** every cell in declaration order; [None] = failed *)
  failures : failure list;  (** declaration order *)
  restored : int;  (** cells served from the checkpoint *)
  cached : int;  (** cells served from the persistent result cache *)
  deduped : int;
      (** cells aliased to another cell with the same descriptor this run *)
  executed : int;  (** cells actually run by this invocation *)
}

type config = {
  jobs : int;
      (** [1]: run the cells in the calling process, in order — the serial
          reference.  [> 1]: run them on [min jobs 128] worker
          {e processes} forked by {!run}, so they inherit the cells and
          everything their closures captured.  Each worker sends every
          result back over its pipe.  A dead worker, SIGKILL injection
          ([--fault kill@i]) included, loses only its in-flight attempt,
          which is retried under [retries] on a fresh fork; there is no
          other limit on deaths.  The sweep is identical to [jobs = 1].
          OCaml 5 cannot fork a process that has ever started a second
          domain, so a caller that has started one gets the [Failure] that
          [Unix.fork] raises. *)
  retries : int;  (** extra attempts for transient failures *)
  fault : Pv_util.Fault.t;  (** deterministic fault injection *)
  max_cycles : int option;
      (** per-cell cycle budget ([None]: default); a [Livelock]-faulted cell
          gets a starved 5 000 cycles instead, so the pipeline watchdog
          fires quickly *)
  checkpoint : string option;
      (** checkpoint directory, a {!Pv_util.Rescache} store (created if
          missing); [None] disables *)
  resume : bool;  (** serve cells whose descriptor the checkpoint holds *)
  cache : Pv_util.Rescache.t option;
      (** persistent result cache; cells with a descriptor consult it before
          running and store their results after *)
}

val default : config
(** [jobs = 1], [retries = 0], no fault, no cycle override, no checkpoint,
    no cache. *)

val run : ?config:config -> 'a cell list -> 'a sweep
(** Execute the sweep under supervision.  Cell keys must be unique.  Each
    executed cell's value is stored under its descriptor in the checkpoint
    and the cache, whichever are configured, by this process, as the
    value arrives: from the cell itself at [jobs = 1], or from the
    worker's result frame above it.  So a crash or Ctrl-C loses at most
    in-flight cells.  A run
    without [resume] reads nothing from the checkpoint and deletes nothing
    from it: an entry can only ever be served for its own inputs.

    Each cell with a descriptor is looked up once, in declaration order: in
    the checkpoint under [resume] (counted [restored]), else in the cache
    (counted [cached]).  A served cell skips fault injection and retries
    entirely — it is never executed.  Then cells whose descriptor
    equals an earlier cell's this run are aliased to it (counted [deduped];
    one simulation, many rows), and only the remainder executes — forking
    no worker at all when it is empty.  Fault-plan indices refer to
    positions in that remainder.  Cache hits are not copied into the
    checkpoint, so a resumed run without the cache executes them again.
    The table a sweep produces is byte-identical whether its cells were
    executed, restored, cached or deduped — provenance shows up only in
    {!report} and {!sweep} counts. *)

val resume_preflight : string -> (int, string) result
(** Check a checkpoint directory before resuming from it: [Ok n] when it is
    a store holding [n > 0] entries, else a one-line reason — the path does
    not exist, is not a directory (a pre-store checkpoint journal file
    included), or holds no entries.  Entries are counted, not verified: a
    damaged one is dropped and its cell re-run when the sweep looks it
    up. *)

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

val write_json : file:string -> exported list -> unit
(** Write the [--metrics] JSON document ([{"sweeps": {<label>: {"summary":
    ..., "cells": ...}}}]), deterministic bytes, to [file]. *)
