(** Reference in-order instruction-set simulator.

    Executes programs with plain architectural semantics: no speculation, no
    caches, no timing.  It serves two purposes: (i) it is the correctness
    oracle for the out-of-order pipeline (both must compute identical
    architectural results on any program), and (ii) it provides fast
    functional execution for trace collection (dynamic ISVs). *)

type trap_action =
  | Redirect of int * (Insn.reg * int) list
      (** Jump to function id, after assigning the given registers. *)
  | Skip  (** Treat the trap as a no-op and fall through. *)
  | Stop  (** Terminate execution. *)

type hooks = {
  on_syscall : int array -> trap_action;
      (** Receives the architectural register file (mutable; assignments via
          [Redirect] are applied after the hook returns). *)
  on_sysret : int array -> trap_action;
  on_insn : (int -> int -> Insn.t -> unit) option;
      (** Optional per-instruction observer [(fid, idx, insn)], called before
          the instruction executes; used for tracing. *)
}

type outcome =
  | Halted
  | Out_of_fuel
  | Fault of string  (** e.g. return with empty stack, indirect call to a non-code VA *)

type result = {
  outcome : outcome;
  steps : int;
  regs : int array;  (** final architectural register file *)
}

val run :
  ?fuel:int ->
  ?regs:int array ->
  ?hooks:hooks ->
  asid:int ->
  mem:Mem.t ->
  Program.t ->
  start:int ->
  result
(** [run ~asid ~mem prog ~start] executes from instruction 0 of function
    [start] until [Halt], a fault, or [fuel] instructions (default 1_000_000).
    Registers start at 0 unless [regs] is given (it is copied). *)
