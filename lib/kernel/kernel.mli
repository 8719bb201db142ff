(** The synthetic operating system: processes, cgroups, allocators, the
    callgraph, tracing, and functional system-call handlers.

    The kernel has two faces.  The {e functional} face (this module) performs
    the architectural effects of system calls — allocating and freeing frames
    through the buddy allocator, kmalloc/kfree through the (secure) slab
    allocator, mapping pages, recording traces.  The {e timing} face is the
    ISA code of {!Kimage}, executed on the pipeline by the machine in
    [Pv_sim]; {!exec_syscall} returns the parameters the machine loads into
    the kernel-mode registers before redirecting fetch to the entry. *)

type t

val create : seed:int -> unit -> t
(** A kernel over 65_536 physical frames (4 KiB each) with the secure slab
    allocator and the call graph of [seed] ({!Callgraph.synthesize}). *)

val phys : t -> Physmem.t
val slab : t -> Slab.t
val graph : t -> Callgraph.t
val trace : t -> Trace.t

val shared_base : t -> int
(** Direct-map VA of kernel-shared data (outside every process DSV). *)

val unknown_base : t -> int
(** VA of untracked memory (paper §6.1 "unknown allocations"). *)

val spawn : t -> name:string -> Process.t
(** Create a process in a cgroup of its own, with its kernel stack,
    working-set frames and resident slab objects.  Cgroups are numbered
    from 1 in spawn order; [name] labels the workload for the caller and is
    not stored. *)

type sys_effects = {
  ret : int;
  data_va : int;  (** value for r8: base of the data this call works on *)
  trips : int;  (** value for r11 *)
  variant : int;  (** value for r12 *)
  new_frames : int list;  (** frames allocated by this call (cold pages) *)
  freed_frames : int list;  (** frames released by this call *)
}

val exec_syscall : t -> Process.t -> nr:int -> args:int array -> sys_effects
(** Run the functional handler: performs allocations/frees, updates traces,
    and returns the register parameters for the timing run.  [args] meaning:
    read/write/send/recv: bytes; select/poll/epoll_wait: nfds;
    mmap/munmap/fork: pages. *)
