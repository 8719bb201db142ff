(** Data Speculation View Metadata Table (paper §6.2).

    A per-context three-level tree over physical pages, mirroring the page
    sizes of contemporary hardware (1 GiB / 2 MiB / 4 KiB): a walk descends
    level by level and the 4 KiB leaf holds a single bit — "does this page
    belong to the context's DSV?".  Entries are populated lazily from the
    ownership oracle (the kernel's allocation tracking); frees must
    invalidate the page so a recycled frame never leaks a stale bit. *)

type t

val create : oracle:(page:int -> bool) -> t
(** [oracle ~page] is the authoritative membership answer consulted on the
    first walk for a page (4 KiB page index = PA / 4096). *)

val walk : t -> page:int -> bool
(** Perform a table walk: returns the leaf bit, populating intermediate
    levels on demand. *)

val invalidate_page : t -> page:int -> unit
(** Drop the leaf so the next walk re-consults the oracle. *)
