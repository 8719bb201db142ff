(** TAGE conditional-branch direction predictor (scaled-down L-TAGE).

    A bimodal base table plus four partially tagged tables indexed by
    geometrically increasing global-history lengths.  The pipeline owns the
    global history register (so it can checkpoint/restore it across
    squashes); prediction returns packed metadata that must be passed back to
    {!update} when the branch resolves.

    The predictor is shared and untagged across address spaces — exactly the
    property Spectre-style mistraining relies on. *)

type t

type meta = int
(** Provider/alternate information captured at prediction time, packed into
    an int so that predicting allocates nothing. *)

val create : unit -> t

val reset : t -> unit
(** Restore the create-time state: every counter and tag refilled, lookup
    count zero. *)

val predict : t -> pc:int -> hist:int -> meta

val predicted : meta -> bool
(** The predicted direction. *)

val update : t -> pc:int -> hist:int -> meta -> taken:bool -> unit
(** Train with the resolved outcome.  [pc] and [hist] must be the values used
    at prediction time. *)

val lookups : t -> int
