(** Virtual-address layout of the simulated machine.

    Every function occupies one 4 KiB code page (at most 1024 four-byte
    instructions), so function ids map to page-aligned bases.  The kernel half
    additionally holds the direct map (all physical frames) and the ISV pages,
    which mirror kernel code pages at a fixed offset as in the paper's
    Figure 6.1(a). *)

type space = Kernel | User

val insn_bytes : int
(** 4. *)

val page_bytes : int
(** 4096. *)

val line_bytes : int
(** Cache-line size, 64. *)

val max_insns_per_func : int
(** 1024. *)

val kernel_code_base : int
val isv_page_offset : int
(** Fixed VA offset from a kernel code page to its ISV page. *)

val user_data_base : int
(** Base of per-process user heap/stack VAs. *)

val kernel_global_base : int
(** VA region for kernel global variables (outside the direct map): the
    source of "unknown" allocations. *)

val func_base : space -> int -> int
(** [func_base space fid] is the VA of instruction 0 of function [fid]. *)

val insn_va : space -> int -> int -> int
(** [insn_va space fid idx]. *)

val decode_code_va : int -> (space * int * int) option
(** Inverse of [insn_va]: [Some (space, fid, idx)] for a code VA. *)

val space_of_va : int -> space
(** [Kernel] for any VA at or above [kernel_code_base]'s half, [User]
    otherwise. *)

val direct_map_va : int -> int
(** VA of physical address [pa] in the direct map. *)

val pa_of_direct_map : int -> int option
(** Inverse of [direct_map_va] when the VA lies in the direct map. *)

val isv_page_va : int -> int
(** ISV page VA for the kernel code page containing the given code VA. *)

val phys_key : asid:int -> int -> int
(** Physical tag used by caches and backing memory.  Kernel-half VAs are
    shared across address spaces; user-half VAs are disambiguated by [asid],
    modelling per-process physical pages behind identical virtual layouts. *)

val line_of : int -> int
(** Cache-line index of an address ([addr / 64]). *)
