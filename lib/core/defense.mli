(** Defense schemes as pipeline guards (paper Chapter 7's configurations).

    - [Unsafe]: the unprotected baseline.
    - [Fence]: hardware-only — every speculative load waits for all older
      branches to resolve.
    - [Dom]: Delay-on-Miss — speculative loads that miss the L1 wait for
      their Visibility Point; L1 hits proceed.
    - [Stt]: Speculative Taint Tracking — only transmitters whose operands
      derive from a not-yet-visible speculative load are delayed.
    - [Perspective kind]: the paper's scheme — in kernel mode, a speculative
      load is fenced when the instruction is outside the context's ISV
      (checked through the ISV cache) or the data is outside its DSV
      (checked through the DSV cache backed by DSVMT walks).  A view-cache
      miss conservatively fences and refills (§6.2).
    - [Safespec]: shadow structures — speculative loads fill a shared shadow
      table (and the BTB trains only at commit); squash discards everything,
      the Visibility Point promotes survivors into the real hierarchy.
    - [Specbox]: like [Safespec] but shadow entries are labeled per ASID:
      hits require a label match and a squash flushes only the squashing
      domain's entries. *)

type scheme =
  | Unsafe
  | Fence
  | Dom
  | Stt
  | Perspective of Isv.kind
  | Safespec
  | Specbox

val scheme_name : scheme -> string
val all_schemes : scheme list
(** The five configurations of Chapter 7 (with [Perspective All] omitted). *)

type t

val build :
  scheme:scheme ->
  vm:View_manager.t ->
  node_of_fid:(int -> int option) ->
  block_unknown:bool ->
  ?isv_cache_entries:int ->
  ?dsv_cache_entries:int ->
  ?memsys:Pv_uarch.Memsys.t ->
  unit ->
  t
(** Instantiate a defense.  [vm], [node_of_fid] are only consulted by
    Perspective guards; pass a throwaway view manager for the others.
    Cache capacities default to the paper's 128 entries.  [memsys] (the
    core's memory hierarchy) is required by the shadow schemes
    [Safespec]/[Specbox] — raises [Invalid_argument] when omitted for those
    — and ignored by every other scheme. *)

val guard : t -> Pv_uarch.Guard.t

val isv_cache : t -> Svcache.t
val dsv_cache : t -> Svcache.t

val isv_pages : t -> Isv_pages.t
(** The demand-populated ISV metadata pages behind the ISV cache. *)

val view_manager : t -> View_manager.t
(** The registry of live views this defense consults (for runtime
    reconfiguration). *)

val note_freed_page : t -> page:int -> unit
(** Frame freed / owner changed: invalidate the DSV cache entry and every
    DSVMT leaf for that physical page. *)

val note_view_changed : t -> insn_va:int -> unit
(** A function's ISV membership changed at runtime (shrink / gadget patch):
    drop the stale ISV-cache entries and shadow-page bits for its code
    page. *)
