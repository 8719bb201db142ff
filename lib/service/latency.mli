(** Latency recorder for the request-serving simulator: keeps the raw
    per-request sojourn times (cycles) so tail percentiles are {e exact}
    nearest-rank statistics, and mirrors them into the fixed log2-bucket
    shape of {!Pv_util.Metrics} for the deterministic JSON export.

    Everything here is plain data and arithmetic — no clocks, no global
    state — so two identical simulations produce byte-identical renderings
    for any worker count. *)

type t

val of_samples : float array -> count:int -> t
(** [of_samples a ~count] is the recorder of the sojourn times (cycles)
    [a.(0 .. count - 1)], checked in one pass.  The recorder owns [a]:
    percentile queries reorder those entries in place, and entries from
    [count] on are never read.  Raises [Invalid_argument] when [count] is
    outside [[0, Array.length a]], or on a NaN or negative sojourn: the
    percentiles need a total order. *)

val percentile_opt : t -> p:float -> float option
(** Exact nearest-rank percentile over the raw samples (see
    {!Pv_util.Stats.percentile}), found by selection (Hoare's FIND) instead
    of a sort; [None] for the empty recorder — an all-shed load point
    serves nothing and must render as [n/a], not raise.  Each rank found
    stays at its sorted index, so a later query searches only between the
    two found ranks around its own: expected O(n) for the first query, and
    the slice between its neighbours for each later one (a repeated rank
    costs nothing).  Raises [Invalid_argument] when [p] is outside
    [[0, 100]]. *)

val observe_metrics : Pv_util.Metrics.t -> prefix:string -> t -> unit
(** Export under [prefix]: a log2 histogram [<prefix>] of the samples
    (rounded to integer cycles) plus [<prefix>.count].  The histogram is
    declared even when empty so the snapshot key set is shape-stable. *)
