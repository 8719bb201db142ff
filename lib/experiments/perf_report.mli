(** Renderers for the performance evaluation: Figure 9.2 (LEBench normalized
    latency), Figure 9.3 (datacenter throughput), the §9.1 spot/hardware
    mitigation comparisons, and Table 10.1 (fence breakdown). *)

val fig_lebench_partial :
  labels:string list -> (string * Perf.run option list) list -> Pv_util.Tab.t
(** Figure 9.2 from a supervised (possibly degraded) sweep: normalized
    latency per test per scheme, ending with the per-scheme averages.  The
    first run of each row must be the UNSAFE baseline.  Failed cells print
    [FAILED]; a row whose UNSAFE baseline failed prints ["-"] for its
    surviving cells; per-scheme averages cover only complete pairs.
    [labels] names the scheme columns (a fully failed column has no run to
    read a label from). *)

val fig_apps_partial :
  labels:string list -> (string * Perf.run option list) list -> Pv_util.Tab.t
(** Figure 9.3: normalized requests/second per app per scheme, with the
    degraded rendering of {!fig_lebench_partial}. *)

val average_overhead : (string * Perf.run list) list -> (string * float) list
(** Per-scheme average execution overhead (%) vs the leading UNSAFE run. *)

val average_throughput_overhead :
  (string * Perf.run list) list -> (string * float) list
(** Per-scheme average throughput loss (%) vs UNSAFE. *)

val fence_breakdown : (string * Perf.run list) list -> Pv_util.Tab.t
(** Table 10.1: per Perspective variant, the ISV/DSV share of fences and the
    fences per kilo-instruction, averaged over the workloads. *)

val stall_breakdown : (string * Perf.run list) list -> Pv_util.Tab.t
(** Table 10.1 extension: per scheme, the share of stall (zero-commit)
    cycles attributed to each class ({e fetch}, {e rob_full}, {e lsq},
    {e fence_isv}, {e fence_dsv}, {e fence_baseline}, {e dram}, {e exec}),
    summed over the workloads.  The classes partition the stall cycles, so
    shares sum to 100%. *)

val comparison_summary :
  micro:(string * Perf.run list) list ->
  macro:(string * Perf.run list) list ->
  Pv_util.Tab.t
(** §9.1: average overheads of every scheme on microbenchmarks and
    datacenter applications side by side with the paper's numbers. *)

val kernel_time_table : (string * Perf.run list) list -> Pv_util.Tab.t
(** Chapter 7: fraction of execution time spent in the OS per application. *)
