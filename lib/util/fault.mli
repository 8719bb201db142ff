(** Deterministic fault injection for the supervised experiment runner.

    A fault plan decides, purely from a job's {e index} in its batch (and the
    attempt number), whether that job should misbehave — and how.  Because the
    decision is a pure function of [(plan, index, attempt)], the injected
    failure pattern is identical for every worker count and every execution
    order: the supervisor's retry and degradation paths can be exercised by
    ordinary deterministic tests instead of being believed.

    One function of the experiment layer realizes a decision
    ([Pv_experiments.Supervise]'s single attempt at a cell), for the domain
    pool and for worker processes alike.  It treats {!Crashed} and {!Killed}
    as transient, so bounded retry applies, and every other failure as
    permanent.  Kinds of misbehaviour:

    - {b Crash} — the job raises {!Crashed} instead of running.  A plan can
      make the crash stop after N attempts (a flaky job that succeeds on
      retry) or persist forever (a truly dead job).
    - {b Slow} — the job busy-spins for a while before running normally.
      Exercises the executors' tolerance of stragglers without changing
      results.
    - {b Poison} — the job runs to completion but its result is discarded and
      {!Poisoned} is raised: a simulation that terminates with garbage output
      that validation rejects.  Permanent (retrying a deterministic job
      cannot un-corrupt it).
    - {b Livelock} — the job's simulation never terminates on its own.  An
      exception cannot fake this one; the supervisor starves the job's cycle
      fuel so the {!Pv_uarch.Pipeline} watchdog fires and the run ends in a
      structured timeout.
    - {b Kill} — process-level death.  On worker processes ([-j N],
      [N > 1]) the worker assigned the job computes it and SIGKILLs itself
      before it sends the result, exercising the coordinator's recovery:
      it sees the worker's pipe close with no result, reports the lost
      attempt as {!Killed}, and retries it on a fresh worker.  At [-j 1]
      the attempt is lost without running, as {!Killed}: killing the one
      process would end the sweep. *)

type kind = Crash | Slow | Poison | Livelock | Kill

exception Crashed of { index : int; attempt : int }
(** The failure of a [Crash]-faulted attempt, which never runs the job. *)

exception Poisoned of { index : int; attempt : int }
(** The failure of a [Poison]-faulted attempt, after the job ran. *)

exception Killed of { index : int; attempt : int }
(** The failure of a [Kill]-faulted job's lost attempt, in-process or as
    the coordinator reports it. *)

type t
(** An immutable fault plan.  Consulted, never mutated: sharing one plan
    across domains is safe. *)

val none : t
(** The empty plan: no job ever misbehaves. *)

val is_none : t -> bool

val parse : string -> (t, string) result
(** Parse a [--fault] spec: [KIND@INDEX[,KIND@INDEX...]] with [KIND] one of
    [crash] (every attempt), [flaky] (a crash on the first attempt only),
    [slow], [poison], [livelock] or [kill] (first attempt only) and [INDEX]
    a non-negative decimal integer.  Never raises; on malformed input the
    error is a one-line diagnostic naming the spec. *)

val decide : t -> index:int -> attempt:int -> kind option
(** The pure decision function. *)

val spin : unit -> unit
(** The [Slow] payload: a fixed busy-wait (no sleeping, so a slowed job still
    makes progress and cannot wedge a shutdown). *)
