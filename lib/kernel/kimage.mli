(** Executable kernel image: ISA bodies for the kernel functions on simulated
    hot paths.

    The full 28K-node callgraph stays a graph; only the entry, helper and
    dispatch-target functions of the system calls a machine actually executes
    are realized as {!Pv_isa.Program} functions.  Function ids are allocated
    densely from [fid_base] so the image can be concatenated with userspace
    code into one program. *)

type sysdesc = {
  nr : int;
  entry_node : int;
  entry_fid : int;
  helper_fids : int list;
  table_nodes : int array;
      (** Dispatch-slot targets (callgraph nodes); [||] when the syscall has
          no indirect dispatch site.  Slot layout: majority slots hold the
          installed target, the rest alternates — rotating the slot index
          makes the BTB go stale, creating transient wrong-target execution. *)
}

type t

val build :
  Callgraph.t -> seed:int -> fid_base:int -> syscalls:int list -> t
(** A syscall whose own helpers include no dispatch shape but that reuses a
    helper an earlier syscall realized as a dispatch body gets that helper's
    table.  Raises [Invalid_argument] if a realized syscall can still reach
    an indirect call without a table. *)

val funcs : t -> Pv_isa.Program.func list
(** Kernel functions, fids dense in [fid_base, fid_base + length). *)

val next_fid : t -> int
val desc : t -> int -> sysdesc option
(** Descriptor for a realized syscall number. *)

val realized_syscalls : t -> int list
val fid_of_node : t -> int -> int option
val node_of_fid : t -> int -> int option
val table_slots : int
(** Number of function-pointer slots per dispatch table (8). *)
