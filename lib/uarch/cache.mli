(** Set-associative cache with true-LRU replacement.

    Caches hold only presence (tags), never data — data lives in {!Pv_isa.Mem}.
    Crucially for transient-execution modelling, a fill performed by a
    speculatively executed load persists after a squash; that persistence is
    the covert channel every attack in this repository uses.

    Tags and LRU stamps are two flat int arrays and the valid bits one
    [Bytes], indexed [set * ways + way]: {!create} makes three blocks
    however many ways the cache has, not one record per way. *)

type t

val create :
  name:string -> size_bytes:int -> line_bytes:int -> ways:int -> latency:int -> t
(** Raises [Invalid_argument] unless sizes are positive and divide evenly,
    and unless [line_bytes] and the set count ([size_bytes / line_bytes /
    ways]) are powers of two: a lookup splits the address by shift and
    mask.  A new cache is an allocation followed by {!reset}. *)

val reset : t -> unit
(** Restore the create-time state: no line resident, recency clock and
    hit/miss counts at zero.  Clears one byte per slot; stale tags and LRU
    stamps stay in place, unread until a fill overwrites them. *)

val latency : t -> int

val access : t -> int -> bool
(** [access t addr] looks up the line containing [addr]: on hit, updates LRU
    and returns [true]; on miss, fills (evicting LRU) and returns [false].
    Every lookup below accepts any [addr], negative ones included (a
    wrong-path load can compute one); each line has its own set and tag. *)

val access_no_lru : t -> int -> bool
(** Like {!access} but on a hit does not update recency — Perspective's
    DSV/ISV caches defer LRU updates until the Visibility Point (§6.2). *)

val read_lat : t -> t -> dram:int -> int -> int
(** [read_lat l1 l2 ~dram addr]: {!access} [l1], on a miss {!access} [l2],
    and return the round trip, [latency l1], plus [latency l2] past an L1
    miss, plus [dram] past both.  One call for a whole read, so a caller
    makes one cross-module call per access. *)

val touch : t -> int -> unit
(** Promote a resident line to most-recently-used (the deferred LRU update);
    no effect if absent. *)

val probe : t -> int -> bool
(** Presence check with no side effects. *)

val flush_line : t -> int -> unit
val flush_all : t -> unit

val write_signature : Pv_util.Checksum.sink -> t -> unit
(** Write the canonical rendering of the cache's architectural state: every
    resident line as [set.way:tag@rank;] where [rank] is the line's LRU
    ordinal within its set (0 = least recent).  Two caches holding the same
    lines with the same relative recency produce identical signatures
    regardless of how many accesses built that state — the contract checker
    diffs these across runs with different secrets.  To a
    [Checksum.Digest] sink it folds the signature into the hash without
    building it; [Checksum.render write_signature] is its text. *)

val hits : t -> int
val misses : t -> int
