(** Deterministic discrete-event model of a request-serving machine:
    [cores] simulated cores, each with a bounded FIFO queue, a pluggable
    dispatch policy, and admission control that sheds arrivals once the
    target queue is full — so overload degrades to a bounded tail latency
    plus measured goodput instead of an unbounded queue.

    The simulation is exact (no time stepping): arrivals are processed in
    time order, each core is FIFO, and a request's sojourn time is fully
    determined by its arrival time, its service time and the backlog of the
    core it joins.  Everything is a pure function of the inputs, preserving
    the repo's byte-identity contract.

    Each core's FIFO is a ring of completion times in one shared float
    array, and the sojourns go into one float array sized to the arrivals
    that becomes the {!Latency} recorder, so a call allocates a fixed set of
    arrays and nothing per request. *)

type dispatch =
  | Round_robin
      (** Core [i mod cores] for the [i]-th arrival.  The mapping depends
          only on the arrival index, so a load sweep with common random
          numbers keeps per-core arrival patterns comparable across loads. *)
  | Join_shortest_queue
      (** The core with the smallest backlog at arrival time (ties to the
          lowest core index). *)

val dispatch_of_string : string -> (dispatch, string) result
(** ["rr"] / ["round-robin"] or ["jsq"] / ["join-shortest-queue"]. *)

val dispatch_to_string : dispatch -> string

type config = {
  cores : int;
  queue_bound : int;
      (** Admission bound per core, counting the request in service: an
          arrival finding [queue_bound] requests at its target core is
          shed. *)
  dispatch : dispatch;
}

val default_config : config
(** 4 cores, queue bound 32, round-robin. *)

type result = {
  offered : int;  (** arrivals presented *)
  served : int;
  shed : int;  (** arrivals rejected by admission control *)
  horizon : float;
      (** completion time (cycles) of the last served request; the span
          goodput is measured over *)
  latency : Latency.t;  (** sojourn times (queueing + service) of served requests *)
  per_core_served : int array;
  busy_cycles : float array;  (** per-core total service time *)
}

val simulate :
  ?config:config -> arrivals:float array -> service:(int -> float) -> unit -> result
(** [simulate ~arrivals ~service ()] serves the requests arriving at the
    (ascending) times [arrivals], request [i] costing [service i] cycles.
    [service] is consulted for every arrival index — shed or not — so a
    pre-drawn service stream stays aligned across load points.
    [queue_bound = 0] is legal and sheds every arrival: the result degrades
    to zero goodput with an empty latency recorder (percentiles are [n/a]),
    which the reporting layer must render rather than crash on.  Raises
    [Invalid_argument] on a non-positive [cores], a negative [queue_bound],
    a NaN or unsorted arrival or a non-positive service time. *)

val goodput_rps : result -> float
(** Served requests per simulated second at 2 GHz ([0.] when nothing was
    served). *)

val utilization : result -> float
(** Mean per-core busy fraction over the horizon ([0.] when nothing was
    served). *)
