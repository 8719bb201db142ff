(** §9.2 sensitivity analysis: view-cache hit rates, the cost of blocking
    unknown allocations, secure-slab memory fragmentation, and domain
    reassignment frequency. *)

val hit_rates :
  micro:(string * Perf.run list) list ->
  macro:(string * Perf.run list) list ->
  Pv_util.Tab.t
(** ISV/DSV cache hit rates of the PERSPECTIVE runs (paper: ~99%). *)

val unknown_allocations :
  ?seed:int -> ?scale:float -> ?jobs:int -> unit -> Pv_util.Tab.t * float
(** LEBench under PERSPECTIVE with and without blocking of unknown
    allocations; returns the table and the average overhead attributable to
    unknown allocations (paper: 1.5%).  [jobs] parallelizes the per-test
    run pairs; results are order-merged, so output is [jobs]-independent. *)

type fragmentation_result = {
  shared_utilization : float;
  secure_utilization : float;
  shared_pages : int;  (** peak pages held *)
  secure_pages : int;
  memory_overhead_pct : float;
}

val fragmentation : ?seed:int -> ?jobs:int -> unit -> fragmentation_result
(** The same allocation trace against the shared and the secure slab
    allocator (paper: 0.91% memory overhead). *)

val fragmentation_table : fragmentation_result -> Pv_util.Tab.t

val domain_reassignment : macro:(string * Perf.run list) list -> Pv_util.Tab.t
(** Slab frees that return a page to the buddy allocator, per app (paper:
    redis 0.23% / 96 per second; others at most 0.01% / 4 per second). *)

type cache_size_point = int * Perf.run * Perf.run * Perf.run * Perf.run
(** [(entries, select UNSAFE, select PERSPECTIVE, redis UNSAFE,
    redis PERSPECTIVE)]. *)

val cache_size_cells :
  ?seed:int -> ?scale:float -> unit -> cache_size_point Supervise.cell list
(** Extension: PERSPECTIVE's view caches swept from 32 to 512 entries on a
    cache-hostile microbenchmark (select) and a server (redis) — hit rates
    and execution overhead vs the 128-entry design point of Table 7.1.  One
    supervised cell per capacity (keys ["cache-size/<entries>"]). *)

val cache_size_table : (string * cache_size_point option) list -> Pv_util.Tab.t
(** Render a (possibly degraded) supervised capacity sweep; failed points
    keep their row, marked FAILED. *)

val isv_metadata : macro:(string * Perf.run list) list -> Pv_util.Tab.t
(** Extension: demand-populated ISV shadow pages (Figure 6.1(a)) and their
    per-context memory footprint — the cost of exposing ISVs to hardware. *)
