(** Tiny assembler with forward labels.

    Used by the kernel code generator, the workloads and the attack gadget
    builders to produce function bodies without hand-computing branch
    targets. *)

type label

type t

val create : unit -> t

val fresh_label : t -> label
(** A new, not-yet-placed label. *)

val place : t -> label -> unit
(** Bind a label to the current position.  A label may be placed only once. *)

val emit : t -> Insn.t -> unit

(* Convenience emitters. *)
val li : t -> Insn.reg -> int -> unit
val alu : t -> Insn.binop -> Insn.reg -> Insn.reg -> Insn.reg -> unit
val alui : t -> Insn.binop -> Insn.reg -> Insn.reg -> int -> unit
val load : t -> Insn.reg -> Insn.reg -> int -> unit
val store : t -> Insn.reg -> Insn.reg -> int -> unit
val branch : t -> Insn.cond -> Insn.reg -> Insn.reg -> label -> unit
val jump : t -> label -> unit
val call : t -> int -> unit
val icall : t -> Insn.reg -> unit
val ret : t -> unit
val syscall : t -> unit
val sysret : t -> unit
val halt : t -> unit

val finish : t -> Insn.t array
(** Resolve all labels.  Raises [Invalid_argument] if a used label was never
    placed or the body exceeds one page. *)
