(** Synthetic kernel call graph at paper scale (~28K functions).

    The graph is the substrate for everything ISV-related: static ISVs are
    reachability over direct edges from an application's syscall entry set
    (the radare2 substitute), dynamic ISVs come from traced executions, the
    Kasper-style scanner searches it for gadgets, and Table 8.1's attack
    surface is measured on it.

    Structure mirrors a monolithic kernel:
    - one entry node per system call;
    - a layered shared core (mm/vfs/net/sched helpers) reachable from most
      entries, with intra-core calls flowing toward deeper layers;
    - per-syscall private subtrees (the long tail of handler code);
    - an indirect pool: functions reachable {e only} through function-pointer
      dispatch sites (file_ops-style), invisible to static analysis;
    - hot/cold labelling that drives dynamic tracing.

    The shape is fixed: 28_000 nodes, of which 340 syscall entries, a
    1_200-node shared core and a 2_600-node indirect pool.

    {b Representation.}  A graph is flat and immutable: direct and indirect
    edges are compressed sparse rows (an offset array plus one target
    array), cold flags a [Bytes], and depths an [int array] from which
    {!indirect_only} is derived.  Entry lookup is a range check and node
    names are formatted on demand.  A graph lives in about 1 MiB.

    {b Sharing.}  {!synthesize} keeps the most recent seed's graph in one
    mutex-guarded slot shared by every domain, so the cells of a sweep,
    which all run on one seed, build it once per process.  Nothing about a
    graph is mutable, so sharing it cannot make results depend on which
    cell or domain asked first.  One slot rather than a table: a
    calibration that cycles through derived seeds keeps one graph alive,
    not one per seed. *)

type t

val synthesize : int -> t
(** [synthesize seed] is the graph of [seed], built deterministically from
    it.  If the most recent call asked for the same seed, it returns that
    call's value rather than building a new one. *)

val nnodes : t -> int
val node_name : t -> int -> string
val entry_of_syscall : t -> int -> int
(** Entry node of a syscall number. *)

val syscall_of_entry : t -> int -> int option
val direct_callees : t -> int -> int list
val indirect_targets : t -> int -> int list
(** Candidate targets of the dispatch site hosted by this node ([] if none). *)

val is_cold : t -> int -> bool
val depth : t -> int -> int
(** Shortest direct-edge distance from any syscall entry (max_int if
    unreachable directly). *)

val indirect_only : t -> int -> bool
(** True when the node is unreachable via direct edges from every entry. *)

val static_reachable : t -> int list -> Pv_util.Bitset.t
(** Direct-edge closure from the given entry nodes: the static-ISV node set
    (indirect targets excluded, as static analysis cannot resolve them). *)

val reachable_with_indirect : t -> int list -> Pv_util.Bitset.t
(** Closure following both direct edges and all indirect candidate edges:
    the speculatively reachable surface of the unprotected kernel. *)

val sample_trace : t -> Pv_util.Rng.t -> syscall:int -> installed:(int -> int option) -> int list
(** One dynamic execution of a syscall: walks direct edges, skipping cold
    children with high probability, and follows each dispatch site to its
    installed target ([installed site_node]).  Returns executed nodes. *)

val default_installed : t -> app_seed:int -> int -> int option
(** Deterministic per-application choice of the installed target for each
    dispatch site (which concrete file_ops the app's files use). *)

val region : t -> int -> [ `Entry | `Core | `Ipool | `Private ]
(** Which structural region of the synthetic kernel a node belongs to. *)

val indirect_pool_bounds : t -> int * int
(** [(lo, hi)] node-id bounds (inclusive lo, exclusive hi) of the indirect
    pool region. *)
