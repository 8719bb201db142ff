(** The ISV security study: Table 8.1 (attack-surface reduction), Table 8.2
    (gadget reduction per ISV flavour) and Figure 9.1 (Kasper discovery-rate
    speedup under ISV-bounded scanning).

    One synthetic kernel hosts all five workloads (each in its own cgroup);
    static ISVs come from each workload's syscall set, dynamic ISVs from
    functional traces, ISV++ from excluding the gadgets the bounded scan
    finds. *)

type workload_views = {
  name : string;
  static_nodes : Pv_util.Bitset.t;
  dynamic_nodes : Pv_util.Bitset.t;
  plus_nodes : Pv_util.Bitset.t;
}

type t = {
  kernel : Pv_kernel.Kernel.t;
  corpus : Pv_scanner.Gadgets.t;
  views : workload_views list;
  build_seed : int;
      (** the seed {!build} was given; pins kernel/corpus/views in result-
          cache descriptors *)
}

val build : ?seed:int -> unit -> t

(* Table 8.1 *)
type surface_row = {
  workload : string;
  isv_s_reduction : float;
  isv_reduction : float;
  static_size : int;
  dynamic_size : int;
  kernel_functions : int;
}

val surface_rows : t -> surface_row list
val surface_table : t -> Pv_util.Tab.t

(* Table 8.2 *)
type gadget_row = {
  workload : string;
  isv_s_pct : float * float * float;  (** MDS / Port / Cache excluded *)
  isv_pct : float * float * float;
  plus_pct : float * float * float;
}

val gadget_rows : t -> gadget_row list
val gadget_table : t -> Pv_util.Tab.t

(* Figure 9.1 *)
type speedup_row = {
  workload : string;
  full_rate : float;
  bounded_rate : float;
  speedup : float;
}

val speedup_cells : ?seed:int -> t -> speedup_row Supervise.cell list
(** Figure 9.1 as supervised cells (keys ["speedup/<workload>"]); the
    shared full-kernel campaign runs up front, each cell runs one
    workload's ISV-bounded campaign. *)

val speedup_table_rows : (string * speedup_row option) list -> Pv_util.Tab.t
(** Render a (possibly degraded) supervised Figure 9.1; failed workloads
    keep their row, marked FAILED, and the average covers survivors. *)
