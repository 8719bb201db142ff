(** Programs: an array of functions, each one page of instructions.

    A machine runs exactly one program containing both the synthetic kernel's
    executable functions and the userspace code of every process; the function
    id is its index in the program and determines the code VA via {!Layout}. *)

type func = {
  fid : int;
  name : string;
  space : Layout.space;
  body : Insn.t array;
}

type t

val of_funcs : func list -> t
(** Builds a program.  Raises [Invalid_argument] if ids are not dense from 0,
    a body exceeds {!Layout.max_insns_per_func}, or a branch/jump/call target
    is out of range. *)

val length : t -> int
val func : t -> int -> func
val fetch : t -> int -> int -> Insn.t option
(** [fetch t fid idx]; [None] past the end of the body. *)
