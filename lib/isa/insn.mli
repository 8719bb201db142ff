(** The simulator's compact RISC-like instruction set.

    The synthetic kernel, the userspace workloads and the attack gadgets are
    all expressed in this ISA and executed either by the reference in-order
    interpreter ({!Iss}) or by the speculative out-of-order pipeline
    ({!Pv_uarch.Pipeline}).  Instructions are 4 bytes wide for address
    arithmetic; there is no binary encoding. *)

type reg = int
(** Register index, [0..num_regs-1]. *)

val num_regs : int
(** Number of architectural registers (16).  By convention [r0..r5] carry
    system-call number and arguments, [r15] is the return-value register. *)

type binop = Add | Sub | And | Or | Xor | Shl | Shr | Mul

type cond = Eq | Ne | Lt | Ge

type t =
  | Nop
  | Limm of reg * int  (** [rd <- imm] *)
  | Alu of binop * reg * reg * reg  (** [rd <- rs1 op rs2] *)
  | Alui of binop * reg * reg * int  (** [rd <- rs1 op imm] *)
  | Load of reg * reg * int  (** [rd <- mem\[rs1 + imm\]]; the transmitter class *)
  | Store of reg * reg * int  (** [mem\[rs1 + imm\] <- rs2] *)
  | Branch of cond * reg * reg * int  (** conditional branch to an instruction index in the same function *)
  | Jump of int  (** unconditional jump to an instruction index *)
  | Call of int  (** direct call to a function id *)
  | Icall of reg  (** indirect call through a register holding a function entry VA *)
  | Ret
  | Fence  (** lfence-like: younger instructions wait until it retires *)
  | Flush of reg * int  (** clflush of the line containing [rs1 + imm] *)
  | Syscall  (** trap to kernel; serializing *)
  | Sysret  (** return from kernel to user; serializing *)
  | Halt

val is_load : t -> bool
val is_store : t -> bool
val is_branch : t -> bool
(** [is_branch] covers only conditional branches. *)

val is_control : t -> bool
(** Any instruction that redirects fetch. *)

val is_serializing : t -> bool
(** [Syscall], [Sysret], [Halt] and [Fence]. *)

val eval_binop : binop -> int -> int -> int
val eval_cond : cond -> int -> int -> bool

val to_string : t -> string
