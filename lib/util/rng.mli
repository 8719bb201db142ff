(** Deterministic pseudo-random number generation.

    All stochastic choices in the simulator flow through this module so that
    every experiment is reproducible bit-for-bit from its seed.  The generator
    is SplitMix64 (Steele, Lea & Flood, OOPSLA'14): tiny state, excellent
    statistical quality for simulation purposes. *)

type t
(** Mutable generator state: the 64-bit SplitMix64 word, held unboxed, so
    no draw allocates (a draw returning a [float] to another module still
    boxes its result). *)

val create : int -> t
(** [create seed] makes a fresh generator.  Equal seeds yield equal streams. *)

val bits : t -> int
(** Next non-negative 62-bit integer: the top 62 bits of the next raw
    64-bit SplitMix64 output. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)].  Raises [Invalid_argument] if [n <= 0]. *)

val in_range : t -> int -> int -> int
(** [in_range t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val bool : t -> bool
(** Fair coin. *)

val chance : t -> float -> bool
(** [chance t p] is true with probability [p] (clamped to [\[0,1\]]). *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val sample_exp : t -> float -> float
(** [sample_exp t mean] draws from an exponential distribution. *)

type weighted
(** A prepared sampler over the indices of a weight array. *)

val weighted : float array -> weighted
(** [weighted ws] prepares weighted draws over [0 .. length ws - 1], index
    [i] with probability proportional to [max ws.(i) 0].  O(n) once: it
    stores the prefix sums.  Raises [Invalid_argument] on an empty array, a
    NaN or infinite weight, or a total weight that is not positive and
    finite. *)

val pick : t -> weighted -> int
(** [pick t w] draws one index: one {!float} draw of the total weight, then
    a binary search of the prefix sums, O(log n).  The draw consumes the
    stream exactly as a linear scan over the weights would and returns the
    same index. *)
