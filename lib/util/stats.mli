(** Small statistics helpers used by the experiment harnesses. *)

val mean : float list -> float
(** Arithmetic mean.  Raises [Invalid_argument] on the empty list — it used
    to return a silent [0.], which renders as a plausible table cell.  Use
    {!mean_opt} where an empty series is legitimate. *)

val mean_opt : float list -> float option
(** {!mean} with the empty sample degrading to [None] instead of an
    exception; render it as ["n/a"]. *)

val nearest_rank : p:float -> n:int -> int
(** The 1-based nearest rank [ceil (p/100 * n)] clamped to [[1, n]],
    computed in integer arithmetic at milli-percent resolution so binary
    floating point cannot bump an exact boundary to the next rank (the old
    float path made [p = 70., n = 10] evaluate [0.7 *. 10. =
    7.000000000000001] and ceil to rank 8).  Exact for any [p] with at
    most three decimal digits (70., 99.9, 12.345).  Shared by
    {!percentile} and [Latency.percentile_opt].  Raises [Invalid_argument] on
    [p] outside [[0, 100]] or [n < 1]. *)

val percentile : float list -> p:float -> float
(** [percentile xs ~p] is the nearest-rank percentile: the smallest element
    of [xs] such that at least [p]% of the sample is [<=] it (no
    interpolation, so the result is always a member of [xs]).  Monotone
    non-decreasing in [p]; [p = 0.] returns the minimum and [p = 100.] the
    maximum.  Raises [Invalid_argument] on an empty list or [p] outside
    [[0, 100]]. *)

val ratio_pct : num:int -> den:int -> float
(** Percentage [num/den * 100].  Raises [Invalid_argument] when [den = 0]
    — a zero denominator is a "no data" condition, not a 0% one, and
    silently rendering it as [0.0] produced plausible-looking lies in the
    sensitivity tables. *)
