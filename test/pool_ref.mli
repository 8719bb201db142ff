(** Frozen shared-queue pool: the semantic oracle for
    [test_matches_reference_pool].

    This is the pre-work-stealing {!Pv_util.Pool} implementation (single
    mutex-guarded [Queue.t], every dequeue serializing on one lock), with the
    same ordered job/result protocol: results in input order, size-1 pools
    run the exact serial path, lowest-index failure re-raised after the batch
    drains.  The test suite checks that the work-stealing pool computes
    exactly what this scheduler computes.  It is no longer a benchmark
    baseline and does not ship in the library. *)

type t

val create : jobs:int -> t
val size : t -> int

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Ordered parallel map over the shared queue; same contract as
    {!Pv_util.Pool.map}. *)

val shutdown : t -> unit
val with_pool : jobs:int -> (t -> 'a) -> 'a
