(** Shadow speculative-load structures for SafeSpec/SpecBox-style schemes.

    Instead of {e blocking} speculative loads (FENCE/DOM/STT/Perspective), a
    shadow scheme lets them execute but redirects their fills into a private
    side table that the real cache hierarchy never sees.  On squash the shadow
    entries are discarded — transient fills leave no trace an attacker's
    flush+reload can observe.  When a load reaches its Visibility Point its
    line (if still shadowed) is promoted: removed from the table and filled
    into the real hierarchy with a genuine access, exactly as a
    non-speculative load would have done.

    Two flavours share the implementation:
    - {b Shared} (SafeSpec): one unlabeled shadow; any squash flushes it all.
    - {b Labeled} (SpecBox): entries are tagged with the filling ASID; hits
      require a label match and a squash flushes only the squashing ASID's
      entries — isolation between security domains rather than a global
      purge. *)

type mode = Shared | Labeled

type t

val create : mode:mode -> Pv_uarch.Memsys.t -> t
(** The memory system is only {e probed} (never mutated) on the speculative
    path; mutation happens solely in {!promote}. *)

val spec_read : t -> key:int -> asid:int -> int
(** Latency of a speculative load of physical key [key]: a label-matching
    shadow hit is serviced at L1 latency; otherwise the latency the real
    hierarchy would charge right now (non-mutating probe walk), and the line
    enters the shadow.  Wired into {!Pv_uarch.Guard.t.spec_read}. *)

val promote : t -> key:int -> asid:int -> unit
(** Visibility-Point commit: if [key]'s line is shadowed under this label,
    remove it and perform the real hierarchy fill.  Loads that never hit the
    shadow (store-forwarded, non-speculative, or flushed by an unrelated
    squash) are left alone.  Wired into {!Pv_uarch.Guard.t.notify_vp}. *)

val squash : t -> asid:int -> unit
(** Discard speculative fills: everything in [Shared] mode, only [asid]'s
    entries in [Labeled] mode.  Wired into
    {!Pv_uarch.Guard.t.notify_squash}. *)

val size : t -> int
val fills : t -> int
val discards : t -> int
val promotions : t -> int
