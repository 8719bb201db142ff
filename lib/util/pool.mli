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

    The pool knows nothing of retries or fault injection: a job that must
    survive its own failure catches it, as each job of a supervised sweep
    ([Pv_experiments.Supervise]) does. *)

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

val shutdown : t -> unit
(** Close the pool and join all worker domains.  Idempotent; the pool is
    unusable afterwards. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool, shutting it down on the
    way out (also on exceptions). *)
