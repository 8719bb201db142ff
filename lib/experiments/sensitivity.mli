(** §9.2 sensitivity analysis: view-cache hit rates, the cost of blocking
    unknown allocations, secure-slab memory fragmentation, and domain
    reassignment frequency. *)

val hit_rates :
  micro:(string * Perf.run list) list ->
  macro:(string * Perf.run list) list ->
  Pv_util.Tab.t
(** ISV/DSV cache hit rates of the PERSPECTIVE runs (paper: ~99%). *)

val unknown_allocation_cells :
  ?seed:int -> ?scale:float -> unit -> Perf.run Supervise.cell list
(** LEBench under UNSAFE and PERSPECTIVE with and without blocking of
    unknown allocations: {!Perf.lebench_cells} keyed
    ["unknown-alloc/block/<test>/<label>"], then
    ["unknown-alloc/allow/<test>/<label>"].  UNSAFE ignores the knob, so its
    two modes share one descriptor per test. *)

val unknown_allocations_table : (string * Perf.run option) list -> Pv_util.Tab.t
(** The average PERSPECTIVE overhead over UNSAFE per mode and their
    difference, the part attributable to unknown allocations (paper: 1.5%),
    read by key from results that include {!unknown_allocation_cells}; a
    mode with a failed cell renders FAILED. *)

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

val cache_size_cells : ?seed:int -> ?scale:float -> unit -> Perf.run Supervise.cell list
(** Extension: PERSPECTIVE's view caches swept from 32 to 512 entries on a
    cache-hostile microbenchmark (select) and a server (redis) — hit rates
    and execution overhead vs the 128-entry design point of Table 7.1.  Per
    capacity, UNSAFE and PERSPECTIVE cells of both workloads keyed
    ["cache-size/<entries>/<workload>/<label>"]; UNSAFE ignores the
    capacity, so its cells share one descriptor per workload. *)

val cache_size_table : (string * Perf.run option) list -> Pv_util.Tab.t
(** One row per capacity, read by key from results that include
    {!cache_size_cells}; a capacity with a failed cell keeps its row,
    marked FAILED. *)

val isv_metadata : macro:(string * Perf.run list) list -> Pv_util.Tab.t
(** Extension: demand-populated ISV shadow pages (Figure 6.1(a)) and their
    per-context memory footprint — the cost of exposing ISVs to hardware. *)
