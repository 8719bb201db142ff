(** §9.2 sensitivity analysis: view-cache hit rates, the cost of blocking
    unknown allocations, secure-slab memory fragmentation, and domain
    reassignment frequency. *)

val hit_rates :
  micro:(string * Perf.run list) list ->
  macro:(string * Perf.run list) list ->
  Pv_util.Tab.t
(** ISV/DSV cache hit rates of the PERSPECTIVE runs (paper: ~99%). *)

val unknown_allocation_cells :
  ?seed:int -> ?scale:float -> unit -> float Supervise.cell list
(** LEBench under PERSPECTIVE with and without blocking of unknown
    allocations: one cell per (mode, test), keyed
    ["unknown-alloc/block/<test>"] then ["unknown-alloc/allow/<test>"],
    whose value is PERSPECTIVE's overhead over UNSAFE.  Descriptors spell
    out test, mode, seed and scale. *)

val unknown_allocations_table : (string * float option) list -> Pv_util.Tab.t
(** The average overhead per mode and their difference, the part
    attributable to unknown allocations (paper: 1.5%); a mode with a failed
    cell renders FAILED. *)

type fragmentation_result = {
  shared_utilization : float;
  secure_utilization : float;
  shared_pages : int;  (** peak pages held *)
  secure_pages : int;
  memory_overhead_pct : float;
}

val fragmentation_cells : ?seed:int -> unit -> (float * int) Supervise.cell list
(** The same allocation trace against the shared and the secure slab
    allocator, one cell each (keys ["fragmentation/shared"],
    ["fragmentation/secure"]), valued (utilization, peak pages).  The trace
    has no scale input, so descriptors spell out mode and seed. *)

val fragmentation : (string * (float * int) option) list -> fragmentation_result option
(** Combine the two cells' results (paper: 0.91% memory overhead); [None]
    if either failed. *)

val fragmentation_table : fragmentation_result option -> Pv_util.Tab.t
(** A failed sweep keeps the table, with one FAILED row. *)

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
