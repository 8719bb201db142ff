(** Empirical hardware-software leakage contracts (Guarnieri et al., see
    PAPERS.md), measured instead of asserted.

    For one (attack, scheme) pair the checker runs the attacker program twice
    with two different planted secrets and captures a {e canonical
    observation trace} per run:

    - the commit stream — (fid, idx) of every committed instruction, the
      architectural control-flow observation;
    - the pipeline event ring — squashes, fences, VP releases and the
      [Ev_dload] D-cache access trace (the sequential projection of the
      memory access stream);
    - digests of the L1D/L2/L1I {!Pv_uarch.Cache.state_signature}s taken at
      the attack's observation point, {e before} the flush+reload sweep
      perturbs them — the microarchitectural state a cache attacker probes;
    - the covert-channel readout (leaked byte, hot-slot count) and the
      speculation counters.

    The first three components are streamed into {!Pv_util.Checksum}
    digests as they are produced: the commit tap folds ["fid.idx;"] per
    commit, and the event ring and the cache signatures are written from the
    machine in place.  No observation text is built, and each digest is
    byte-identical to the FNV-1a digest of the rendered text
    ([String.concat "\n"] of {!Pv_uarch.Pipeline.event_to_json} lines; the
    three signatures joined by ['|']).  Each run takes its domain's attack
    machine (see {!Pv_attacks.Lab.create}).

    Diffing the two runs places the scheme on a small contract lattice:

    - [Arch_seq] — observations are secret-independent and no speculative
      load ever issued: the scheme exposes at most the architectural
      sequential trace (FENCE lands here).
    - [Ct_seq] — speculation happened, but every observation is
      secret-independent: the scheme enforces the {e sequential}
      constant-time contract (DOM, STT, SafeSpec, SpecBox, and Perspective
      when its views exclude the gadget).
    - [Ct_spec] — some observation depends on the secret: the scheme's
      contract exposes speculative execution and the attack leaks (UNSAFE;
      DSV-only Perspective under the passive v2 attack).

    Every matrix cell is a {!Pv_experiments.Supervise} cell with a canonical
    {!Pv_util.Rescache} descriptor, so the matrix runs under [-j],
    [--workers], [--fault] and [--checkpoint/--resume], byte-identical in
    every configuration. *)

(** {1 Registries} *)

val attack_names : string list
(** ["v1-index"; "v1-ptr"; "v1-type"; "v2"; "rsb"] — the three Table 4.1
    Spectre-v1 gadget shapes, BTB poisoning, and RAS poisoning. *)

val scheme_labels : string list
(** All ten pipeline schemes (the five standard configurations,
    PERSPECTIVE-ALL, DOM, STT, SAFESPEC, SPECBOX). *)

val find_scheme : string -> Perspective.Defense.scheme
(** Case-insensitive label lookup.  Raises [Invalid_argument] naming the bad
    label and listing the valid ones. *)

(** {1 Observations and verdicts} *)

type obs = {
  commit_digest : string;
  event_digest : string;
  cache_digest : string;
  leaked : int option;
  hot_slots : int;
  spec_loads : int;
  fences : int;
}

type verdict = Arch_seq | Ct_seq | Ct_spec

val verdict_name : verdict -> string
(** ["ARCH-SEQ"], ["CT-SEQ"], ["CT-SPEC"]. *)

val leaks : verdict -> bool
(** [true] only for [Ct_spec]. *)

type result = {
  attack : string;
  scheme : string;
  verdict : verdict;
  diffs : string list;  (** observation components that depended on the secret *)
  obs_lo : obs;
  obs_hi : obs;
}

val default_secrets : int * int
(** [(0x2A, 0xAB)] — the two planted secret bytes. *)

val check :
  ?seed:int -> ?secrets:int * int -> attack:string -> scheme:string -> unit -> result
(** One matrix cell: run [attack] twice under [scheme] with the two planted
    secrets and classify.  Raises [Invalid_argument] on unknown labels.
    Deterministic: equal inputs give byte-equal results.

    [seed] (default 7) changes nothing today: each attack uses its seed
    only to draw a secret when none is planted, and [check] plants both.
    Seeds that vary the secrets or the programs are future work. *)

(** {1 Supervised matrix} *)

val cells :
  ?seed:int ->
  ?secrets:int * int ->
  ?attacks:string list ->
  ?schemes:string list ->
  unit ->
  result Pv_experiments.Supervise.cell list
(** The full (or filtered) matrix as supervised cells, attack-major in
    registry order.  Labels are validated up front — an unknown name raises
    [Invalid_argument] before any cell runs.  [seed] only keys the cells'
    descriptors (see {!check}): every seed gives the same results. *)

val matrix_table :
  ?attacks:string list ->
  ?schemes:string list ->
  (string * result option) list ->
  Pv_util.Tab.t
(** Render a sweep's results as the schemes × attacks matrix (rows =
    schemes, columns = attacks); failed cells render as ["FAILED"]. *)
