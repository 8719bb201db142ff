(** Fixed-size worker pool over OCaml 5 domains, with an ordered job/result
    protocol.

    The pool exists to parallelize the experiment layer's embarrassingly
    parallel [Machine] runs without giving up the repository's bit-exact
    determinism guarantee.  The contract callers must uphold is that each job
    is {e self-contained}: it takes pure inputs (seed, config, workload spec)
    and touches no mutable state shared with any other job.  Under that
    contract the pool guarantees:

    - {b ordered results}: [map] returns results in the order of its input
      list, regardless of which worker ran which job or in what order jobs
      completed;
    - {b serial equivalence}: a pool of size 1 runs every job in the calling
      domain, in submission order — exactly the serial path;
    - {b deterministic errors}: if jobs raise, every job still runs to
      completion and the exception of the {e lowest-indexed} failing job is
      re-raised (with its backtrace) after all workers have drained, so the
      observable failure does not depend on the worker count.

    The calling domain participates in draining the work during [map], so a
    pool of size [n] uses [n-1] spawned domains plus the caller.

    {b Scheduling} is one mutex-guarded FIFO shared by every participant.
    Scheduling decides only {e where} a job runs — the results contract
    above is independent of it, so [-j 1] and [-j N] output stay
    byte-identical.

    {b Fatal exceptions}: [Out_of_memory] and [Stack_overflow] escaping a
    raw {!submit}ted job are never swallowed — they kill the worker domain
    (re-raised by {!shutdown}'s join) or propagate directly from the
    calling domain.  Any other exception escaping a submitted job keeps the
    domain alive and triggers a once-per-process stderr warning.  [map]'s
    own jobs capture every exception into their result slot, fatal ones
    included, preserving the lowest-index re-raise. *)

type t
(** A pool of worker domains.  Not itself thread-safe: drive a given pool
    from one domain at a time. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the [-j] default of the CLI and
    bench harnesses. *)

val create : jobs:int -> t
(** [create ~jobs] spawns [max jobs 1 - 1] worker domains.  [jobs = 1] spawns
    none: every subsequent [map] degenerates to [List.map].  If the runtime
    refuses a spawn (OCaml caps the number of live domains), the pool keeps
    the domains it has, prints [pool: started K of N domains] to stderr and
    runs at size [K]. *)

val size : t -> int
(** Total workers, including the calling domain. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs] runs [f x] for every [x] of [xs] across the pool's
    workers and returns the results in the order of [xs].  Raises
    [Invalid_argument] if the pool has been shut down. *)

(** {1 Supervised mapping}

    {!map} makes one job's exception the whole batch's exception.  The
    supervised variant {!map_results} never raises on a job failure: every
    job yields an {!outcome}, failed jobs classified transient are retried
    (bounded, with deterministic busy-wait backoff), and the caller decides
    how to degrade.  This is the substrate of the experiment layer's
    checkpointed, fault-tolerant sweeps. *)

type classification =
  | Transient  (** worth retrying: injected crashes, flaky infrastructure *)
  | Permanent  (** retrying a deterministic job cannot help *)

type error = {
  exn : exn;
  backtrace : Printexc.raw_backtrace;
  classification : classification;
}

type 'b outcome = {
  result : ('b, error) result;
  attempts : int;  (** total attempts made, [>= 1] *)
  elapsed : float;
      (** wall-clock seconds across all attempts.  Informational only —
          excluded from every determinism contract. *)
}

val default_classify : exn -> classification
(** {!Fault.Crashed} and {!Fault.Killed} are [Transient]; everything else
    [Permanent]. *)

val map_results :
  ?retries:int ->
  ?classify:(exn -> classification) ->
  ?fault:Fault.t ->
  ?on_outcome:(int -> 'b outcome -> unit) ->
  t ->
  ('a -> 'b) ->
  'a list ->
  'b outcome list
(** [map_results pool f xs] is {!map} with per-job supervision: each job's
    exceptions are captured, jobs whose error classifies [Transient] are
    re-attempted up to [retries] extra times (default [0]) with a
    deterministic doubling busy-wait between attempts, and the per-job
    {!outcome}s come back in input order.  [fault] (default {!Fault.none})
    injects deterministic misbehaviour keyed on the job's input index —
    identical for every worker count, which is what makes the fault-injected
    determinism tests possible.  [on_outcome] is invoked with [(index,
    outcome)] on the domain that ran the job, once per job, after its final
    attempt — where the experiment layer stores finished values; exceptions
    it raises are ignored.
    Outcome lists are deterministic up to the [elapsed] field. *)

val submit : t -> (unit -> unit) -> unit
(** Fire-and-forget: enqueue a raw job.  A non-fatal exception escaping the
    job is swallowed (with a warn-once stderr line) and the domain keeps
    serving work; [Out_of_memory] and [Stack_overflow] propagate (see the
    module preamble).  Raises [Invalid_argument] after {!shutdown}. *)

val shutdown : t -> unit
(** Close the pool, drain every still-queued job (no accepted job is
    lost — the caller helps, so this also works on a size-1 pool with no
    worker domains), then join all worker domains.  A worker domain killed
    by a runtime-fatal exception re-raises it here.  Idempotent; the pool
    is unusable afterwards. *)

val run : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** One-shot convenience: [create], [map], [shutdown].  [jobs] defaults to 1
    (the serial path) so that library callers stay serial unless a [-j] flag
    is threaded down to them explicitly. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool, shutting it down on the
    way out (also on exceptions). *)
