(** ISV pages: the in-memory metadata backing the ISV cache (paper §6.2,
    Figure 6.1(a)).

    Each kernel code page has a shadow ISV page holding one bit per
    instruction slot.  Pages are materialized
    on demand, per execution context, the first time the ISV cache misses on
    an instruction of that code page — so the metadata footprint tracks the
    kernel-code working set of each context rather than the whole kernel.

    One code page holds 1024 four-byte instruction slots, so its shadow
    bitmap is 128 bytes; a context that touches a few hundred kernel pages
    pays tens of KiB. *)

type t

val create : unit -> t

val lookup :
  t -> ctx:int -> insn_va:int -> member:(unit -> bool) -> bool
(** Read the bit for an instruction, materializing the containing shadow
    page on first touch ([member] supplies the authoritative answer used to
    fill it; it is invoked once per instruction slot at population time via
    lazy per-bit fill). *)

val invalidate_page : t -> code_page_va:int -> unit
(** Drop the shadow page in every context (a gadget patch must not leave
    stale bits). *)

val populated_pages : t -> ctx:int -> int
(** Shadow pages materialized for a context. *)

val metadata_bytes : t -> ctx:int -> int
(** Memory footprint of the context's materialized shadow pages (128 bytes
    per code page). *)
