(** Active transient-execution attack: Spectre v1 in a kernel system call
    (paper Figure 4.1).

    The attacker's own kernel thread executes a bounds-check gadget with an
    attacker-controlled index.  After mistraining the bounds check with
    in-bounds calls, an out-of-bounds index makes the kernel speculatively
    read a word owned by the {e victim} (out of the attacker's DSV) and
    transmit it through a cache covert channel that the attacker decodes with
    flush+reload.

    The outcome is read back from simulated microarchitectural state —
    success and failure are measured, never asserted. *)

type variant =
  | Array_index
      (** Table 4.1 row 1 (CVE-2022-27223): an array index from a syscall
          argument is never validated against the bound that gates it. *)
  | Pointer_arith
      (** Table 4.1 row 3 (eBPF verifier CVEs): the bounds check validates a
          length while the gadget offsets a pointer by a {e scaled} index,
          so in-bounds-looking arithmetic still walks out of the object. *)
  | Type_confusion
      (** Table 4.1 row 4 (CVE-2021-33624): a mistrained type-tag branch
          makes the kernel interpret an attacker-controlled scalar as a
          pointer and dereference it. *)

val variant_name : variant -> string

val run :
  ?seed:int ->
  ?variant:variant ->
  ?secret:int ->
  ?trace:bool ->
  ?on_commit:(int -> int -> Pv_isa.Insn.t -> unit) ->
  ?observe:(Lab.t -> unit) ->
  scheme:Perspective.Defense.scheme ->
  unit ->
  Lab.outcome
(** Default variant: [Array_index].  [secret] overrides the seed-derived
    planted byte (masked to 0–255); the memory layout is secret-independent,
    which is what makes the contract checker's two-secret diff meaningful.
    [trace] turns on the lab pipeline's event ring; [on_commit] taps the
    commit stream; [observe] runs after the attack but {e before} the
    flush+reload sweep, on pristine post-attack cache state. *)

val run_all : ?seed:int -> unit -> Lab.outcome list
(** One outcome per scheme in {!Perspective.Defense.all_schemes} but the
    DSV-only [Perspective Isv.All]. *)

val variants : variant list
(** The three Table 4.1 gadget shapes, in table order. *)

val run_variants : ?seed:int -> scheme:Perspective.Defense.scheme -> unit -> Lab.outcome list
(** Every {!variants} entry under one scheme, in order. *)
