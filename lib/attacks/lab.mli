(** Shared scaffolding for attack proof-of-concepts.

    A lab is a miniature machine — physical memory with owned frames, the
    memory hierarchy, a pipeline, and an installable defense — plus the
    attacker-side primitives: cache-line eviction ("flush") and the reload
    half of flush+reload.  Reloads probe physical keys (the direct-map
    alias of the line the gadget touched), which is how a real attacker's
    user mapping and the kernel's direct-map access meet at the same
    physical set. *)

type t

val create :
  prog:Pv_isa.Program.t ->
  node_of_fid:(int -> int option) ->
  nnodes:int ->
  ?frames:int ->
  ?trace:bool ->
  seed:int ->
  unit ->
  t
(** [trace] (default false) turns on the pipeline's event-trace ring with a
    64 K capacity — the contract checker's observation tap. *)

val phys : t -> Pv_kernel.Physmem.t
val mem : t -> Pv_isa.Mem.t
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
val load : t -> int -> int
