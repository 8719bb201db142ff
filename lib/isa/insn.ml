type reg = int

let num_regs = 16

type binop = Add | Sub | And | Or | Xor | Shl | Shr | Mul

type cond = Eq | Ne | Lt | Ge

type t =
  | Nop
  | Limm of reg * int
  | Alu of binop * reg * reg * reg
  | Alui of binop * reg * reg * int
  | Load of reg * reg * int
  | Store of reg * reg * int
  | Branch of cond * reg * reg * int
  | Jump of int
  | Call of int
  | Icall of reg
  | Ret
  | Fence
  | Flush of reg * int
  | Syscall
  | Sysret
  | Halt

let is_load = function Load _ -> true | _ -> false

let is_store = function Store _ -> true | _ -> false

let eval_binop op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> a lsl (b land 62)
  | Shr -> a lsr (b land 62)
  | Mul -> a * b

let eval_cond c a b =
  match c with Eq -> a = b | Ne -> a <> b | Lt -> a < b | Ge -> a >= b
