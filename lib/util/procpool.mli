(** Coordinator/worker process pool for supervised sweeps ([--workers N]).

    The in-process {!Pool} cannot survive a SIGKILL — a dead domain takes
    the whole runtime with it.  This pool runs sweep cells in separate OS
    processes so the coordinator can lose a worker (a crash, an OOM kill,
    injected [--fault kill@i]) and recover: respawn the worker, keep the
    cells it finished, and retry exactly the cell whose attempt was lost.

    {b Execution model.}  {!run_jobs} forks [N] workers from the calling
    process, so every worker inherits the caller's cells, closures and the
    results they captured; nothing is rebuilt or replayed.  Coordinator and
    worker speak a newline-framed protocol over two pipes ([RUN <index>
    <attempt> <hex key>] down, [RDY]/[OK]/[ERR] up).  Cell {e results never
    travel inside the control protocol}, and this module never touches them:
    the caller's worker body stores each result where the caller can find
    it (the experiment layer uses a {!Rescache} store) before replying, and
    the caller's [finished] predicate says whether a cell's result exists.
    A worker killed between that store and its reply therefore loses
    nothing — [finished] holds when the coordinator reaps the corpse.

    OCaml 5 refuses [Unix.fork] in a process that has ever started a
    second domain, so {!run_jobs} raises [Failure] when called after any
    [Domain.spawn] (including a {!Pool} of more than one job).

    {b Recovery.}  Worker death is detected by [waitpid], not pipe EOF.  The coordinator drains
    raced replies (a reply line torn by the kill is discarded, never
    parsed), asks [finished] about the inflight cell (true → completed;
    false → a lost, transient attempt that re-queues under the retry
    budget), and respawns a fresh process into the same slot.  Respawns
    share one pool-wide budget ([respawns]); a pool that exhausts it fails
    its remaining cells instead of hanging.  Transient [ERR] replies
    re-queue under the same retry budget: only the coordinator can retry a
    cell whose worker died, so it retries every cell.  A failure's reason
    is the string the worker reported, returned verbatim in [Failed].

    {b Determinism.}  Cell identity is the key (stable across processes);
    fault indices are positions in the coordinator's runnable list and
    attempt numbers are the coordinator's count, both carried in each
    [RUN] command, so [Fault.decide] sees identical inputs in every
    process and the injected pattern is reproducible for any worker
    count. *)

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
  cmd_in : in_channel;  (** coordinator commands *)
  reply_out : out_channel;  (** protocol replies *)
}

type verdict = Done | Fail of { transient : bool; reason : string }
(** What a worker reports for one cell.  [Done] implies the result has
    already been stored.  Transient failures re-queue under the
    coordinator's retry budget; permanent ones fail the cell. *)

val serve : ctx -> handle:(index:int -> attempt:int -> key:string -> verdict) -> bool
(** Worker main loop: announce readiness, then execute [RUN] commands via
    [handle] until [FIN] or EOF.  [handle] owns everything domain-specific
    (finding the cell for [key], fault realization, storing the result).
    Returns [true] on [FIN]; [false] when the coordinator is gone — EOF on
    the command pipe, or a reply that could not be written — so the worker
    can clean up what only the coordinator would otherwise remove. *)

(** {1 Coordinator side} *)

type outcome =
  | Completed of { attempts : int }
      (** the worker stored the cell's value *)
  | Failed of { attempts : int; transient : bool; reason : string }

val run_jobs :
  ?drain_timeout:float ->
  workers:int ->
  respawns:int ->
  retries:int ->
  finished:(int -> bool) ->
  worker:(ctx -> unit) ->
  keys:string array ->
  unit ->
  outcome array
(** Run one cell per entry of [keys] (cell [i]'s fault index is [i]) on a
    pool of [workers] (at least [1]) worker processes forked from the
    caller, respawning dead workers up to [respawns] times total and
    retrying transiently failed or killed attempts up to [retries] extra
    times per cell.  Each worker runs [worker] on its own context and then
    [_exit]s ([71] if [worker] raised); every buffered channel is flushed
    before each fork.  [finished i] arbitrates a worker that died running
    cell [i]: it must say whether that cell's result was stored.
    [drain_timeout] (default 10 s) bounds the post-[FIN] exit grace period;
    a straggler that outlives it is killed with a one-line warning naming
    the worker.  No worker outlives the call, even when it raises.  Returns
    per-cell outcomes in index order.  SIGPIPE is ignored for the
    duration. *)
