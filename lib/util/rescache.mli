(** Persistent, content-addressed store of finished results.

    One store type serves two roles: the [--cache] result cache and the
    [--checkpoint] of a supervised sweep.  A store maps a {e canonical
    input descriptor} — a string spelling out every input of a measurement
    (machine config knobs, seed, scheme, job kind) — to the job's
    marshalled result, stored as one JSON envelope file under a root
    directory.  The file name is a 64-bit FNV-1a digest (16 hex chars,
    filename-safe) of the salted descriptor, so equal inputs collide onto
    the same entry on every machine and for every worker count, and the
    envelope stores the full descriptor so a digest collision degrades to a
    miss, never to a wrong result.  No store evicts: an entry stays until
    it is found damaged or its directory is removed.

    {b Torn-write discipline.} Entries are written to a temp file in the
    root and [rename]d into place, so a reader can never observe a
    half-written entry: a process killed mid-store leaves at most a temp
    file, never an entry.  Entries are additionally checksummed: the
    envelope carries an FNV-1a digest of the payload bytes, and {!find}
    re-verifies it before unmarshalling — a truncated, bit-flipped or
    otherwise damaged entry is {e dropped and recomputed, never trusted}.

    {b Shared roots.} Several processes may share one root — the runs of
    one machine, or independent runs over a network filesystem.  No locks
    are needed: an entry appears only through temp-file + [rename], {!find}
    re-verifies the payload checksum, and the stored descriptor must equal
    the key looked up.  Two runs that miss the same entry both compute it,
    and the last rename wins with identical bytes.

    {b Invalidation.} The effective salt is [format_version ^ code_salt]:
    bump [code_salt] (rescache.ml) whenever a stored result type or the
    simulator's measured behaviour changes, and every stale entry becomes
    unreachable (different file names) and unreadable (salt check).

    {b Type safety.} Values go through [Marshal] untyped: a descriptor must
    determine its value type.  The experiment layer guarantees this by
    prefixing every descriptor with its sweep family ([perf/lebench|...],
    [service-cal|...]) and keeping one value type per family. *)

type t

val open_dir : string -> t
(** [open_dir dir] opens (creating it, including parents, if needed) a store
    rooted at [dir].  Thread-safe: one [t] may be shared across domains, and
    one directory may be shared across processes (every entry is written by
    temp-file + rename). *)

val entries : t -> int
(** The number of entry files under the root (temp files left by a killed
    store do not count).  Entries are not verified here; {!find} does
    that. *)

val find : t -> key:string -> 'a option
(** Look up the entry for canonical descriptor [key].  [None] on a miss, on
    a salt/version mismatch, and on any corrupt entry (which is deleted and
    counted in [corrupt_dropped]).  The value must be read at the type it
    was stored with (see the type-safety note above). *)

val store : t -> key:string -> 'a -> unit
(** Write (or atomically replace) the entry for [key] via temp-file +
    rename.  I/O errors do not raise — a store that cannot write degrades to
    a store that never hits — but each failure is counted in
    [write_errors] and the first one warns on stderr. *)

val store_all : t list -> key:string -> 'a -> unit
(** {!store} into every store of the list.  An entry has the same bytes in
    every store, so each store after the first that can takes a hard link
    to the entry already written — one directory entry instead of a new
    file — and writes its own copy when [link] fails.  Rescache never
    modifies an entry file in place, so the stores stay independent. *)

val report : ?out:out_channel -> t -> unit
(** One-line [rescache: hits=... misses=... writes=... write_errors=...
    corrupt_dropped=... dir=...] summary (the [--cache-stats]
    output, default [stderr]): lookups that served an entry, lookups that
    did not, entries written, failed writes (I/O errors, swallowed) and
    corrupt or version-mismatched entries deleted.  Cache counters are run provenance (a warm
    run hits where a cold run missed), so they never land in the
    [--metrics] export, which must stay byte-identical between cold and
    warm runs. *)
