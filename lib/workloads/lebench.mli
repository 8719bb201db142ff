(** The LEBench microbenchmark suite (Ren et al., SOSP'19), as used in the
    paper's Figure 9.2: each test exercises one kernel operation in a tight
    measurement loop.  Iteration counts are scaled for simulation; relative
    latencies across defense schemes are what the experiment reports. *)

type test = {
  name : string;
  sequence : (int * int array) list;  (** system calls per iteration *)
  iterations : int;
  user_work : int;
}

val tests : test list
(** ref (getpid), read/big-read, write/big-write, mmap/big-mmap, munmap,
    page-fault/big-page-fault, fork/big-fork, thread-create, send, recv,
    select, poll, epoll, context-switch. *)

val find : string -> test
(** Raises [Not_found]. *)

val all_syscalls : int list
(** Union over the suite (for kernel-image realization). *)

val scaled : test -> factor:float -> test
(** Scale the iteration count (min 2). *)
