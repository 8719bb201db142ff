(** Registry binding execution contexts to their speculation views.

    The OS registers each context (cgroup) with an ISV and implicitly gets a
    DSVMT; the hardware side (the {!Defense} guard) resolves the running
    ASID to its context here.  Swapping a context's ISV at runtime models the
    paper's dynamically reconfigurable views. *)

type t

val create : nnodes:int -> oracle:(ctx:int -> page:int -> bool) -> t
(** [oracle] is the authoritative DSV-membership answer (derived from the
    kernel's allocation ownership), consulted by DSVMT walks. *)

val register : t -> asid:int -> ctx:int -> isv:Isv.t -> unit
val ctx_of_asid : t -> int -> int option
val isv_of_ctx : t -> int -> Isv.t option
val isv_of_asid : t -> int -> Isv.t option
val set_isv : t -> ctx:int -> Isv.t -> unit
val dsvmt : t -> ctx:int -> Dsvmt.t
(** Get (or lazily create) the context's DSVMT. *)

val invalidate_page : t -> page:int -> unit
(** A frame was freed or changed owner: drop its leaf in every DSVMT. *)

val contexts : t -> int list
