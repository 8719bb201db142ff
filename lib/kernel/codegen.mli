(** ISA code generator for executable kernel functions.

    Only kernel functions on simulated hot paths get real instruction bodies;
    their shape is controlled by small specs so each system call's timing
    character matches its Linux counterpart (copy loops for read/write,
    dependent pointer chases with data-dependent branches for select/poll,
    cold-page touches for mmap/fork, function-pointer dispatch for vfs ops).

    Kernel-mode register convention (set up by the machine at syscall entry):
    - [r0]  syscall number (read-only)
    - [r8]  base VA of the context's own data (direct map, inside its DSV)
    - [r9]  base VA of kernel-shared data (outside the process DSV)
    - [r10] base VA of untracked/unknown memory (paper §6.1)
    - [r11] size parameter (loop trip counts)
    - [r12] per-invocation variant (rotates working sets and dispatch slots)
    - [r13] base VA of a function-pointer table seeded with target entry VAs
    - [r1..r7], [r14], [r15] scratch. *)

type loop_spec = {
  trips_shift : int;  (** trip count = r11 lsr trips_shift *)
  min_trips : int;
  unroll : int;  (** loads per iteration *)
  stride : int;  (** bytes between iterations' access bases *)
  dep_chain : bool;  (** each load's address derives from the previous value *)
  shared_every : int;  (** every 2^k-th iteration loads kernel-shared data (0 = never; must be a power of two otherwise) *)
  unknown_every : int;  (** likewise for unknown memory *)
  store_every : int;  (** likewise for stores to own data *)
  branch_mask : int;  (** data-dependent branch on (value land mask) = 0; 0 = none *)
  alu_pad : int;  (** extra ALU ops per iteration *)
}

type shape =
  | Loop of loop_spec
  | Leaf of { loads : int; stores : int; alu : int; shared : bool }
      (** Small straight-line helper; [shared] reads r9 instead of r8. *)
  | Dispatch of { slots : int; post : loop_spec }
      (** Indirect call through the r13 table at slot [r12 mod slots], then a
          loop.  [slots] must be a power of two. *)

val gen_body : shape -> tail:[ `Ret | `Sysret ] -> Pv_isa.Insn.t array

val gen_entry : callees:int list -> Pv_isa.Insn.t array
(** Entry function of a system call: direct calls to its helper fids, then
    [Sysret]. *)

val seed_page : Pv_isa.Mem.t -> Pv_util.Rng.t -> int -> unit
(** Fill the page at the given (physical-key) base with word values suitable
    as pointer-chase offsets (multiples of 8 within the page). *)
