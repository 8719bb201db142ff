(** Passive transient-execution attack: Spectre-v2 speculative control-flow
    hijacking with type confusion (paper Figure 4.2).

    A shared kernel function dispatches through a function pointer after
    loading a reference to the caller's data.  The attacker first calls the
    same syscall with {e its} file type bound to a gadget-shaped ops
    implementation, training the (VA-indexed, untagged) BTB entry of the
    kernel's indirect call toward the gadget.  When the {e victim} then makes
    the syscall, the indirect call — its function-pointer load evicted, so
    resolution is slow — is predicted into the gadget, which dereferences the
    victim's in-flight pointer (speculative type confusion) and transmits the
    victim's secret through the cache.

    Every access in the gadget touches {e victim-owned} data, so DSVs alone
    cannot stop it ([Perspective Isv.All] leaks); the victim's ISV — which
    does not contain the gadget function — does (paper §5.1). *)

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
(** One outcome per scheme in {!Perspective.Defense.all_schemes}: the
    baselines, the DSV-only configuration ([Perspective Isv.All]), the ISV
    configurations and the shadow schemes. *)

type patch_outcome = {
  before_patch : Lab.outcome;  (** gadget (wrongly) trusted by the victim's ISV *)
  after_patch : Lab.outcome;  (** same live system after excluding the gadget *)
}

val run_patch_demo : ?seed:int -> unit -> patch_outcome
(** The paper's "swiftly patching gadgets" workflow (§5.4): start from a
    victim ISV that mistakenly trusts the gadget function — the passive
    attack leaks even under PERSPECTIVE — then exclude the function from the
    live view (no kernel patch, no downtime) and re-run the attack: blocked. *)
