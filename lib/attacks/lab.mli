(** Shared scaffolding for attack proof-of-concepts.

    A lab is a miniature machine — physical memory with owned frames, the
    memory hierarchy, a pipeline, and an installable defense — plus the
    attacker-side primitives: cache-line eviction ("flush") and the reload
    half of flush+reload.  Reloads probe physical keys (the direct-map
    alias of the line the gadget touched), which is how a real attacker's
    user mapping and the kernel's direct-map access meet at the same
    physical set.

    {b One machine per domain.}  A lab does not build its machine: each
    domain keeps one memory system and pipeline per pipeline config
    (traced or untraced), and {!create} resets that machine to its
    create-time state, installs the run's program and pairs it with a fresh
    {!Pv_kernel.Physmem}.  A run on a reset machine is indistinguishable
    from a run on a new one.  A lab is therefore valid only until the next
    {!create} on its domain, whatever that lab's config: every accessor of
    an older lab raises [Invalid_argument].  Attack programs are still built
    per run. *)

type t

val frames : int
(** Frames in every lab's physical memory (1024), free until {!alloc}. *)

val create :
  prog:Pv_isa.Program.t ->
  node_of_fid:(int -> int option) ->
  nnodes:int ->
  ?trace:bool ->
  unit ->
  t
(** Reset the calling domain's machine for [trace] (default false) and
    install [prog]; the previous lab created on this domain goes stale.
    [trace] turns on the pipeline's event-trace ring — the contract
    checker's observation tap.  Its 64 K events are a capacity, not an
    up-front allocation: the ring grows as events arrive (and a reused
    machine keeps the grown buffer), and only a run that records more than
    64 K wraps it. *)

val phys : t -> Pv_kernel.Physmem.t
val memsys : t -> Pv_uarch.Memsys.t
val pipeline : t -> Pv_uarch.Pipeline.t

val alloc : t -> owner:Pv_kernel.Physmem.owner -> count:int -> int list
(** Allocate [count] single frames; returns direct-map VAs. *)

val install :
  t ->
  scheme:Perspective.Defense.scheme ->
  views:(int * int * Pv_util.Bitset.t) list ->
  unit
(** [views] is [(asid, ctx, isv_nodes)] per context.  Non-Perspective schemes
    ignore the views. *)

val defense : t -> Perspective.Defense.t option

val flush : t -> int -> unit
(** Evict the line holding this VA from the whole hierarchy. *)

val warm : t -> int -> unit
(** Bring the line holding this VA into the caches. *)

val warm_code : t -> asid:int -> int -> unit
(** Warm the instruction line holding a code VA for the given address space
    (models gadget code living in a hot shared-library text page). *)

type outcome = {
  scheme : string;
  secret : int;  (** the planted secret byte *)
  leaked : int option;  (** what flush+reload recovered, if anything *)
  success : bool;  (** [leaked = Some secret] *)
  fences : int;  (** fences during the attack run *)
  hot_slot_count : int;  (** covert-channel lines observed hot *)
}
(** What one attack run measured; every PoC returns one. *)

val readout :
  t ->
  scheme:Perspective.Defense.scheme ->
  secret:int ->
  fences:int ->
  transmit:int ->
  outcome
(** The attacker's reload: time the 256 64-byte covert-channel slots from
    [transmit]; a slot hits when its latency is below the L2 threshold, and
    the secret is recovered when exactly one slot hits. *)

val store : t -> int -> int -> unit
