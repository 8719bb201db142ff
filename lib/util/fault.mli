(** Deterministic fault injection for the supervised experiment runner.

    A fault plan decides, purely from a job's {e index} in its batch (and the
    attempt number), whether that job should misbehave — and how.  Because the
    decision is a pure function of [(plan, index, attempt)], the injected
    failure pattern is identical for every worker count and every execution
    order: the supervisor's retry and degradation paths can be exercised by
    ordinary deterministic tests instead of being believed.

    Kinds of misbehaviour:

    - {b Crash} — the job raises {!Crashed} instead of running.  Classified
      transient by {!Pool.map_results}' default policy, so bounded retry
      applies; a plan can make the crash stop after N attempts (a flaky job
      that succeeds on retry) or persist forever (a truly dead job).
    - {b Slow} — the job busy-spins for a while before running normally.
      Exercises the pool's tolerance of stragglers without changing results.
    - {b Poison} — the job runs to completion but its result is discarded and
      {!Poisoned} is raised: a simulation that terminates with garbage output
      that validation rejects.  Classified permanent (retrying a
      deterministic job cannot un-corrupt it).
    - {b Livelock} — the job's simulation never terminates on its own.  The
      pool cannot fake this one; the supervisor implements it by starving the
      job's cycle fuel so the {!Pv_uarch.Pipeline} watchdog fires and the run
      ends in a structured timeout.
    - {b Kill} — process-level death.  Under the multi-process runner
      ([--workers N]) the worker assigned the job writes a deliberately torn
      journal record and SIGKILLs itself mid-cell, exercising the
      coordinator's respawn and the journal's torn-write recovery; the
      coordinator reports the lost attempt as {!Killed} (transient, so the
      respawned worker retries).  Under the in-process pool, [Kill] degrades
      to the same behaviour as [Crash] but raising {!Killed} — an OCaml
      domain cannot be SIGKILLed individually. *)

type kind = Crash | Slow | Poison | Livelock | Kill

exception Crashed of { index : int; attempt : int }
(** Raised (by the pool) in place of running a [Crash]-faulted job. *)

exception Poisoned of { index : int; attempt : int }
(** Raised (by the pool) after running a [Poison]-faulted job. *)

exception Killed of { index : int; attempt : int }
(** Raised (by the pool or coordinator) for a [Kill]-faulted job's lost
    attempt. *)

type t
(** An immutable fault plan.  Consulted, never mutated: sharing one plan
    across domains is safe. *)

val none : t
(** The empty plan: no job ever misbehaves. *)

val is_none : t -> bool

type spec = { index : int; kind : kind; first_attempts : int }
(** One planned fault: job [index] suffers [kind] while its attempt number is
    [< first_attempts].  [first_attempts = max_int] (see {!always}) makes the
    fault persistent; [1] makes it flaky — it fails once and succeeds on
    retry. *)

val always : int
(** [max_int]: a [first_attempts] value meaning "every attempt". *)

val plan : spec list -> t
(** Explicit per-index faults; indices not listed behave normally. *)

val parse : string -> (t, string) result
(** Parse a [--fault] spec: [KIND@INDEX[,KIND@INDEX...]] with [KIND] one of
    [crash] (every attempt), [flaky] (a crash on the first attempt only),
    [slow], [poison], [livelock] or [kill] (first attempt only) and [INDEX]
    a non-negative decimal integer.  Never raises; on malformed input the
    error is a one-line diagnostic naming the spec. *)

val seeded :
  seed:int ->
  ?crash:float ->
  ?slow:float ->
  ?poison:float ->
  ?livelock:float ->
  ?transient_attempts:int ->
  unit ->
  t
(** Probabilistic plan: each job index draws independently (SplitMix64 keyed
    on [seed] and the index) whether it is livelocked, crashed, slowed or
    poisoned, with the given probabilities (all default [0.0]).  Crashes
    apply only while [attempt < transient_attempts] (default [1], i.e. flaky:
    one failure, then success), the other kinds are attempt-independent.
    Equal seeds give equal fault patterns on any worker count. *)

val decide : t -> index:int -> attempt:int -> kind option
(** The pure decision function. *)

val spin : unit -> unit
(** The [Slow] payload: a fixed busy-wait (no sleeping, so a slowed job still
    makes progress and cannot wedge a shutdown). *)
