(** Open-loop arrival process: deterministic exponential inter-arrivals
    drawn from the repo's seeded SplitMix64 stream ({!Pv_util.Rng}).

    The generator is built for {e common random numbers} across offered
    loads: [sample_exp] scales a fixed uniform draw by the mean, so for a
    given [seed] the arrival times at two different loads are exact scalar
    multiples of each other.  Sweeping the load therefore compares the same
    arrival pattern, only compressed — which is what makes the load-latency
    curves monotone instead of jittering between load points. *)

type t

val create : seed:int -> mean:float -> t
(** [create ~seed ~mean] is a fresh stream of arrivals with exponential
    inter-arrival times of mean [mean] (cycles).  Raises [Invalid_argument]
    when [mean] is not positive. *)

val times : seed:int -> mean:float -> n:int -> float array
(** [times ~seed ~mean ~n] is the first [n] arrival times of
    [create ~seed ~mean], ascending. *)
