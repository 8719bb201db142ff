(** Kernel tracing subsystem (the ftrace substitute).

    Records, per execution context (cgroup id), which system calls were made
    and which kernel functions ran.  Dynamic ISVs are generated from these
    profiles (paper §5.3, §6.1). *)

type t

val create : Callgraph.t -> t

val record_syscall : t -> ctx:int -> int -> unit
val record_node : t -> ctx:int -> int -> unit
val record_nodes : t -> ctx:int -> int list -> unit

val nodes : t -> ctx:int -> Pv_util.Bitset.t
(** Set of traced kernel functions for a context (empty set if never seen). *)

val syscalls_used : t -> ctx:int -> int list
(** Sorted syscall numbers the context has made. *)
