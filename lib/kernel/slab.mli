(** Slab allocator for implicit kernel allocations (kmalloc), with the secure
    per-context isolation Perspective introduces (paper §5.2, §6.1).

    In [Shared] mode (baseline Linux behaviour) objects of all contexts pack
    into the same pages — distrusting contexts can share even a cache line.
    In [Secure] mode every (size class, owner) pair has its own pages,
    eliminating collocation at page granularity.  When a page's last object
    is freed the page returns to the buddy allocator, which requires a domain
    reassignment on its next use (§9.2 "Domain Reassignment"). *)

type mode = Shared | Secure

type t

val create : mode:mode -> Physmem.t -> t

val size_classes : int array
(** Supported object sizes (bytes): 8 .. 2048, powers of two. *)

val kmalloc : t -> owner:Physmem.owner -> size:int -> int option
(** Allocate an object of at least [size] bytes for [owner]; returns its
    direct-map VA, or [None] when physical memory is exhausted.  [size] above
    the largest class falls back to whole pages from the buddy allocator. *)

val kfree : t -> int -> unit
(** Free an object by VA.  Raises [Invalid_argument] for a VA that was not
    returned by {!kmalloc} (or was already freed). *)

val shares_page_with_other_owner : t -> int -> bool
(** Does the page backing this object currently also hold a live object of a
    different owner?  Always false in [Secure] mode — the property tests rely
    on this. *)

val active_bytes : t -> int
(** Sum of sizes of live objects. *)

val slab_bytes : t -> int
(** Total bytes of pages currently held by the slab allocator. *)

val utilization : t -> float
(** [active_bytes / slab_bytes]; 1.0 when no pages are held. *)

val total_frees : t -> int

val page_returns : t -> int
(** Number of frees that caused a page to return to the buddy allocator. *)

val peak_pages : t -> int
(** High-water mark of pages simultaneously held by the slab allocator. *)
