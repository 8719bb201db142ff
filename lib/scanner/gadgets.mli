(** The transient-execution gadget corpus (the Kasper ground truth).

    Kasper [NDSS'22] reported 1533 potential gadgets in Linux: 805 leaking
    through microarchitectural buffers (MDS), 509 through port contention and
    219 through cache covert channels (paper §8.2).  We plant the same
    population across the synthetic kernel, biased toward deep, cold
    functions — the paper's study found real gadgets "deeply buried within
    infrequently used modules". *)

type kind = Mds | Port | CacheChannel

type gadget = { node : int; kind : kind }

type t

val plant : Pv_kernel.Callgraph.t -> seed:int -> t
(** Standard population: 805 / 509 / 219. *)

val total : t -> int
val count : t -> kind -> int
val gadgets : t -> gadget list
val nodes : t -> int list
val in_scope : t -> Pv_util.Bitset.t -> gadget list
(** Gadgets whose function lies inside the given node set. *)

val excluded_pct : t -> kind -> Pv_util.Bitset.t -> float
(** Percentage of gadgets of [kind] blocked by a view (outside the set):
    Table 8.2's metric. *)
