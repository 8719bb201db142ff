(** Open-loop arrival process: deterministic exponential inter-arrivals
    drawn from the repo's seeded SplitMix64 stream ({!Pv_util.Rng}).

    The generator is built for {e common random numbers} across offered
    loads: [sample_exp] scales a uniform draw by the mean, and for a given
    [seed] every load consumes the same uniform draws.  The arrival times at
    two loads therefore agree, up to rounding, with one scaled copy of the
    other (each time is a running sum of scaled draws, so the roundings of
    the two sums differ).  Sweeping the load compares the same arrival
    pattern, only compressed — which is what makes the load-latency curves
    monotone instead of jittering between load points. *)

val times : seed:int -> mean:float -> n:int -> float array
(** [times ~seed ~mean ~n] is the first [n] arrival times, ascending, of
    the stream seeded by [seed] with exponential inter-arrival times of
    mean [mean] (cycles).  Raises [Invalid_argument] when [mean] is not
    positive. *)
