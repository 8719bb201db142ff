(** The speculation-view hardware caches (paper §6.2, Figure 6.1(b)).

    A small set-associative cache holding one view bit per entry, tagged with
    the address-space id so context switches need no flush.  Used both as the
    ISV cache (keyed by instruction-VA line) and the DSV cache (keyed by data
    page).  Matching the paper's conservative design, LRU promotion can be
    deferred to the load's Visibility Point via {!touch}. *)

type t

val create : ?entries:int -> ?ways:int -> name:string -> unit -> t
(** Defaults: 128 entries, 4 ways (Table 7.1). *)

type lookup = Hit of bool | Miss

val lookup : t -> asid:int -> int -> lookup
(** [lookup t ~asid key] probes without LRU promotion (deferred to VP). *)

val install : ?speculative:bool -> t -> asid:int -> int -> bool -> unit
(** Fill after a DSVMT walk / ISV-page fetch, evicting the set's LRU entry.
    With [~speculative:true] (the state every defense-guard fill is actually
    in), replacement state stays {e frozen}: the filled line inherits the
    evicted victim's LRU stamp, so it remains the set's next victim until
    {!touch} promotes it at the Visibility Point.  A squashed speculative
    walk therefore cannot change which line a later access evicts — the LRU
    channel the paper closes.  Default [false] (architectural fill). *)

val touch : t -> asid:int -> int -> unit
(** LRU promotion at the Visibility Point. *)

val invalidate : t -> int -> unit
(** Drop all entries for a key across all ASIDs (view reconfiguration,
    page frees). *)

val hits : t -> int
val accesses : t -> int
(** Lookups: [hits] plus misses. *)

val hit_rate : t -> float option
(** [None] on an untouched cache — distinguishable from [Some 0.]
    (a 100%-miss cache), which the §9.2 reporting must not conflate. *)

val observe_metrics : Pv_util.Metrics.t -> prefix:string -> t -> unit
(** Register [<prefix>.hits], [<prefix>.misses], [<prefix>.accesses] and —
    only when the cache has been accessed — [<prefix>.hit_rate]. *)
