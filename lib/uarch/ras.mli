(** Return address stack used by the fetch stage to predict [Ret] targets.

    A fixed-depth circular stack with speculative push/pop at fetch and no
    repair on squash.  The lack of repair is a deliberate, documented
    simplification shared with several academic simulators: it makes the RAS
    poisonable by over-returning or by wrong-path calls, which is precisely
    the Spectre-RSB primitive (paper §2.2). *)

type t

val create : ?entries:int -> unit -> t
(** Default 16 entries (Table 7.1). *)

val push : t -> int -> unit
val pop : t -> int option
(** On underflow the stale slot value is served (entries are not erased by
    pops) — this is the ret2spec/Spectre-RSB poisoning lever.  [None] only
    before the first ever push. *)

val clear : t -> unit
(** Restore the create-time state: empty, never pushed, every slot zero. *)
