(** Coordinator/worker process pool for supervised sweeps ([-j N] with
    [N > 1]).

    The pool runs sweep cells in separate OS processes, which share no
    heap, so the coordinator can lose a worker (a crash, an OOM kill,
    injected [--fault kill@i]) and lose nothing but the attempt that worker
    was making.

    {b Execution model.}  {!map} forks its workers from the calling
    process, so every worker inherits the caller's cells, closures and the
    results they captured; nothing is rebuilt or replayed.  A worker is
    forked the first time an attempt is ready for its slot and then serves
    attempt after attempt.  The coordinator writes an [(index, attempt)]
    frame down the worker's command pipe; the worker runs the attempt and
    writes its result back up its result pipe as one marshalled frame.
    The coordinator decodes a frame only once all of its bytes have
    arrived, and hands each value to the caller as it arrives.

    {b Recovery.}  A worker's death shows at once as EOF on its result
    pipe.  A frame read in full before the EOF completes its cell on that
    attempt; a frame cut short by the death is never decoded, and the
    attempt is lost — transient, with the {!Fault.Killed} reason.  A
    transient failure, lost attempts included, re-queues under the
    per-cell retry budget, and the next attempt ready for a dead worker's
    slot forks a fresh worker into it; so the retry budget bounds the
    forks.

    {b Why a frame is safe to decode.}  Both pipes are private to the
    coordinator and its own fork, and only this module writes to them.
    The one corruption a worker can cause is dying mid-write, which leaves
    a short frame.

    {b Determinism.}  Fault indices and attempt numbers are the
    coordinator's, carried in each command frame, so [Fault.decide] sees
    identical inputs in every process and the injected pattern is
    reproducible for any worker count.

    OCaml 5 refuses [Unix.fork] in a process that has ever started a
    second domain, so {!map} raises [Failure] when called after any
    [Domain.spawn]. *)

val map :
  workers:int ->
  retries:int ->
  attempt:(index:int -> attempt:int -> ('a, bool * string) result) ->
  on_value:(int -> 'a -> unit) ->
  int ->
  (('a, string) result * int) array
(** [map ~workers ~retries ~attempt ~on_value n] runs cells [0 .. n - 1]
    on at most [workers] (at least [1]) worker processes.  In a worker,
    [attempt ~index ~attempt] makes attempt number [attempt] at cell
    [index]: the cell's value, or whether its failure is transient and the
    reason.  Values must marshal without closures.  A transient failure is
    retried up to [retries] extra times per cell; [on_value i v] runs in
    the calling process as cell [i]'s value arrives.  Returns each cell's
    value or final reason, with the attempts it took, in index order.
    Every buffered channel is flushed before each fork.  Once every cell
    has an outcome, or when the call raises, the remaining workers are
    SIGKILLed and reaped, so none outlives the call.  SIGPIPE is ignored
    for the duration. *)
