(** Sparse word-granular backing store for the simulated machine.

    Addresses are byte addresses; storage is at 8-byte word granularity
    (loads and stores ignore the low three address bits).  Keys are the
    physical keys produced by {!Layout.phys_key}, so one [Mem.t] backs all
    address spaces of a machine. *)

type t

val create : unit -> t
val load : t -> int -> int
(** [load t key] reads the word at [key]; uninitialized memory reads 0. *)

val store : t -> int -> int -> unit
val clear : t -> unit
