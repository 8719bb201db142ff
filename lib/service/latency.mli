(** Latency recorder for the request-serving simulator: keeps the raw
    per-request sojourn times (cycles) so tail percentiles are {e exact}
    nearest-rank statistics, and mirrors them into the fixed log2-bucket
    shape of {!Pv_util.Metrics} for the deterministic JSON export.

    Everything here is plain data and arithmetic — no clocks, no global
    state — so two identical simulations produce byte-identical renderings
    for any worker count. *)

type t

val create : unit -> t

val observe : t -> float -> unit
(** Record one sojourn time (cycles).  Raises [Invalid_argument] on a NaN or
    negative sojourn: the percentiles need a total order. *)

val count : t -> int

val mean : t -> float
(** Arithmetic mean; [0.] when empty. *)

val max_value : t -> float
(** Largest recorded sample, by one linear pass.  Raises [Invalid_argument]
    when empty. *)

val percentile : t -> p:float -> float
(** Exact nearest-rank percentile over the raw samples (see
    {!Pv_util.Stats.percentile}).  Found by selection (Hoare's FIND) on a
    working copy of the samples kept until the next {!observe}: expected
    O(n) per call, no sort.  Raises [Invalid_argument] when empty or [p] is
    outside [[0, 100]]. *)

val percentile_opt : t -> p:float -> float option
(** {!percentile} with the empty recorder degrading to [None] — an all-shed
    load point serves nothing and must render as [n/a], not raise.  Still
    raises on [p] outside [[0, 100]]. *)

val samples : t -> float array
(** The recorded samples in observation order (a copy). *)

val observe_metrics : Pv_util.Metrics.t -> prefix:string -> t -> unit
(** Export under [prefix]: a log2 histogram [<prefix>] of the samples
    (rounded to integer cycles) plus [<prefix>.count].  The histogram is
    declared even when empty so the snapshot key set is shape-stable. *)
