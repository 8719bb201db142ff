(** Dense bitsets over [0 .. n-1], used for function sets (ISVs, reachability,
    traces) over the 28K-node kernel callgraph. *)

type t

val create : int -> t
(** All bits clear. *)

val length : t -> int
val set : t -> int -> unit
val clear : t -> int -> unit
val mem : t -> int -> bool
val count : t -> int
(** Number of set bits. *)

val copy : t -> t

val elements : t -> int list
val of_list : int -> int list -> t
