(** Coordinator/worker process pool for supervised sweeps ([--workers N]).

    The in-process {!Pool} cannot survive a SIGKILL — a dead domain takes
    the whole runtime with it.  This pool runs sweep cells in separate OS
    processes so the coordinator can lose a worker (a crash, an OOM kill,
    injected [--fault kill@i]) and recover: respawn the worker, salvage
    completed cells from its crash-safe journal, and retry exactly the cell
    whose attempt was lost.

    {b Execution model.}  The coordinator spawns [N] local workers —
    normally by re-executing its own binary with a hidden [__worker] argv
    marker ({!reexec_spawner}), so each worker rebuilds the identical sweep
    from the identical command line.  Slot id, sweep ordinal, journal path
    and replay journal reach the worker through [PV_WORKER_*] environment
    variables ({!worker_init}).  Coordinator and worker speak a
    newline-framed protocol over two pipes ([RUN <index> <attempt> <hex
    key>] down, [RDY]/[OK]/[ERR] up).  Cell {e results never travel inside
    the control protocol}: the worker appends each result to its own
    checksummed {!Journal} (and the shared {!Rescache}) before replying,
    and the coordinator reads values back from the worker journals after
    the run.  A worker killed between journal append and reply therefore
    loses nothing — the coordinator finds the record when it reaps the
    corpse.

    {b Recovery.}  Worker death is detected by [waitpid] (not pipe EOF,
    which fork-spawned siblings can hold open).  The coordinator drains
    raced replies (a reply line torn by the kill is discarded, never
    parsed), consults the worker's journal for the inflight cell (present →
    completed; absent → a lost, transient attempt that re-queues under the
    retry budget), and respawns a fresh process into the same slot and the
    same journal (the fresh worker's [open_writer] quarantines and
    truncates the torn record the kill left behind).  Respawns share one
    pool-wide budget ([respawns]); a pool that exhausts it fails its
    remaining cells instead of hanging.

    {b Determinism.}  Cell identity is the key (stable across processes);
    fault indices are positions in the coordinator's runnable list, carried
    in each [RUN] command, so [Fault.decide] sees identical inputs in every
    process and the injected pattern is reproducible for any worker
    count. *)

exception Worker_failure of string
(** A cell failed inside a worker process.  The payload is the worker-side
    [Printexc.to_string] of the real exception, and the registered printer
    returns it verbatim — so failure reports render byte-identically to the
    single-process path. *)

(** {1 Wire lines} *)

(** One protocol line, either direction: [RUN]/[FIN] down, [RDY]/[OK]/[ERR]
    up.  Keys and reasons are hex-encoded on the wire. *)
type line =
  | Run of { index : int; attempt : int; key : string }
  | Fin
  | Rdy
  | Ok_ of int
  | Err of { index : int; transient : bool; reason : string }

val render_line : line -> string
(** The line's wire form, without the newline. *)

val parse_line : string -> line option
(** Inverse of {!render_line}; never raises.  Indices and attempts must be
    strict non-negative decimals ({!Fault.parse_index}), hex fields
    lowercase and even-length, and the [ERR] class exactly [T] or [P];
    anything else is [None]. *)

(** {1 Worker side} *)

type ctx = {
  wid : int;  (** worker slot id (stable across respawns) *)
  journal : string;  (** this worker's crash-safe journal path *)
  sweep : int;  (** ordinal of the {!Supervise.run} call to serve *)
  replay : string option;
      (** combined journal holding earlier sweeps' results, so dependent
          sweeps (calibration → points) replay instead of recomputing *)
  cmd_in : in_channel;  (** coordinator commands *)
  reply_out : out_channel;  (** protocol replies (a private dup of stdout) *)
}

val worker_arg : string
(** ["__worker"]: the argv marker the CLI checks to enter worker mode. *)

val worker_init : unit -> ctx
(** Enter worker mode: read [PV_WORKER_ID]/[PV_WORKER_JOURNAL]/
    [PV_WORKER_SWEEP]/[PV_WORKER_REPLAY] from the environment (exit 70 if
    absent or malformed), dup the protocol reply channel off stdout, then
    point stdout (and stderr, unless [PV_PROCPOOL_DEBUG] is set) at
    [/dev/null] — the worker re-runs the whole CLI code path and none of
    its human-facing output may pollute the protocol or the terminal.
    Records the context for {!worker_ctx}. *)

val worker_ctx : unit -> ctx option
(** The context recorded by {!worker_init}, if this process is a worker —
    how library code (Supervise, the CLI) detects worker mode. *)

val in_worker : unit -> bool

type verdict = Done | Fail of { transient : bool; reason : string }
(** What a worker reports for one cell.  [Done] implies the result has
    already been journaled (and cached).  Transient failures re-queue under
    the coordinator's retry budget; permanent ones fail the cell. *)

val serve : ctx -> handle:(index:int -> attempt:int -> key:string -> verdict) -> unit
(** Worker main loop: announce readiness, then execute [RUN] commands via
    [handle] until [FIN] or EOF.  [handle] owns everything domain-specific
    (finding the cell for [key], fault realization, journaling). *)

(** {1 Spawning workers} *)

type link
(** The coordinator's end of one worker process: its pid and pipes. *)

type spawner = wid:int -> journal:string -> link

val fork_spawner : (ctx -> unit) -> spawner
(** Spawn workers by [fork]: the child runs the callback on a fresh context
    and [_exit]s.  For tests — no re-exec, so the callback closes over the
    test's cells directly.  [sweep]/[replay] are [0]/[None]. *)

val set_reexec_argv : string list -> unit
(** Record the CLI's original argv (without the program name) so
    {!reexec_spawner} can rebuild the command line.  Called once at CLI
    startup. *)

val reexec_available : unit -> bool

val reexec_spawner : sweep:int -> replay:string option -> spawner
(** Spawn workers by re-executing [Sys.executable_name] with the recorded
    argv behind a [__worker] marker, passing slot id, journal path, target
    sweep ordinal and replay journal through [PV_WORKER_*] environment
    variables.  Raises [Invalid_argument] if {!set_reexec_argv} was never
    called. *)

(** {1 Coordinator side} *)

type outcome =
  | Completed of { attempts : int }
      (** the cell's value is in some worker journal *)
  | Failed of { attempts : int; transient : bool; reason : string }

val run_jobs :
  ?drain_timeout:float ->
  workers:int ->
  respawns:int ->
  retries:int ->
  scratch:string ->
  spawn:spawner ->
  keys:string array ->
  unit ->
  outcome array * string list
(** Run one cell per entry of [keys] (cell [i]'s fault index is [i]) on a
    pool of [workers] (at least [1]) worker processes, respawning dead
    workers up to [respawns] times total and retrying transiently failed or
    killed attempts up to [retries] extra times per cell.  Worker journals
    are created under [scratch] ([worker-<wid>.journal]).  [drain_timeout]
    bounds the post-[FIN] exit grace period; default [PV_PROCPOOL_DRAIN_S]
    or 10 s, and a straggler that outlives it is killed with a one-line
    warning naming the worker.  Returns per-cell outcomes (index order) and
    the worker journal paths that exist.  SIGPIPE is ignored for the
    duration. *)
