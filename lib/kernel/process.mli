(** Userspace processes: an address space (asid), a cgroup, a page table for
    user pages, and the process's kernel-side working-set frames. *)

type t

val create : pid:int -> asid:int -> cgroup:int -> t

val pid : t -> int
val asid : t -> int
val cgroup : t -> int

val map_page : t -> va:int -> frame:int -> unit
val unmap_page : t -> va:int -> int option
(** Returns the frame that was mapped, if any. *)

val fresh_heap_va : t -> pages:int -> int
(** Reserve a fresh, page-aligned user heap VA range. *)

val note_data_frame : t -> int -> unit
(** Register a frame as part of the process's kernel-side working set. *)

val data_frames : t -> int array
(** Frames usable as kernel-side data for this process (round-robin base). *)
