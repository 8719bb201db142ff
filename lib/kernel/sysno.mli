(** System-call numbers and names of the synthetic kernel.

    The first block mirrors well-known Linux system calls (so workloads and
    ISV profiles read naturally); the remainder are filler syscalls that pad
    the kernel's attack surface, mirroring the long tail of rarely used Linux
    entry points. *)

val count : int
(** Total number of system calls (340). *)

val name : int -> string
(** Raises [Invalid_argument] for out-of-range numbers. *)

val lookup : string -> int option

(* Well-known syscalls used by the workloads. *)
val sys_read : int
val sys_write : int
val sys_open : int
val sys_close : int
val sys_stat : int
val sys_fstat : int
val sys_poll : int
val sys_select : int
val sys_epoll_wait : int
val sys_mmap : int
val sys_munmap : int
val sys_brk : int
val sys_mprotect : int
val sys_getpid : int
val sys_fork : int
val sys_thread_create : int
val sys_send : int
val sys_recv : int
val sys_accept : int
val sys_page_fault : int
(** Not a real syscall: the page-fault handler entry, modelled as a kernel
    entry point like LEBench does. *)

val sys_context_switch : int
(** Scheduler entry used by the context-switch microbenchmark. *)

val sys_futex : int
val sys_nanosleep : int
val sys_writev : int
val sys_sendfile : int
val sys_clock_gettime : int
