(** Passive transient-execution attack: Spectre-RSB / ret2spec.

    The return address stack predicts from stale entries on underflow.  The
    attacker runs first, leaving the VA of a gadget in its own user code at
    the top of the RAS.  The victim's system call ends in a return whose
    stack line the attacker evicted: while the return resolves, fetch
    speculates to the stale RAS entry — the attacker's user-space gadget —
    which runs transiently {e in kernel context} with the victim's secret
    reference still live in a register, and transmits it.

    The victim's ISV cannot contain attacker user code, so Perspective fences
    the gadget's transmitters regardless of how the ISV was generated. *)

val run :
  ?seed:int ->
  ?secret:int ->
  ?trace:bool ->
  ?on_commit:(int -> int -> Pv_isa.Insn.t -> unit) ->
  ?observe:(Lab.t -> unit) ->
  scheme:Perspective.Defense.scheme ->
  unit ->
  Lab.outcome
(** [secret] overrides the seed-derived planted byte (masked to 0–255;
    layout is secret-independent).  [trace]/[on_commit]/[observe] are the
    contract checker's observation taps — see {!Spectre_v1.run}. *)

val run_all : ?seed:int -> unit -> Lab.outcome list
