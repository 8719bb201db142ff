(** Typed metric registry: the uniform collection point for the simulator's
    integer and float gauges and histograms.

    Components register values under hierarchical dotted names
    ([pipeline.fences.dsv], [svcache.isv.hit_rate],
    [slab.secure.frag_bytes]); a registry is snapshot-able as plain data and
    renders to JSON deterministically, so exported metrics obey the repo's
    byte-identity contract: for a fixed workload the snapshot (and its JSON)
    is identical for any [-j], because nothing in here reads the clock or
    the scheduler.

    Histograms use fixed log2 buckets: bucket 0 counts observations [<= 0],
    bucket [i >= 1] counts observations in [[2^(i-1), 2^i - 1]], and the
    last of the 32 buckets absorbs everything larger.  The edges are
    compile-time constants so two registries always agree on shape. *)

type t

(** A snapshot value.  [Hist] carries the raw bucket counts (32 of them),
    the observation count and the running sum. *)
type value =
  | Int of int
  | Float of float
  | Hist of { counts : int array; total : int; sum : int }

(** Snapshots are sorted by metric name (ascending, [String.compare]). *)
type snapshot = (string * value) list

val create : unit -> t

(** [set_int t name v] sets the integer gauge [name].
    @raise Invalid_argument on a type conflict. *)
val set_int : t -> string -> int -> unit

(** [set_float t name v] sets the float gauge [name].
    @raise Invalid_argument on a type conflict or a non-finite [v] (NaN and
    infinities have no deterministic JSON rendering). *)
val set_float : t -> string -> float -> unit

(** [observe t name v] records [v] into the log2 histogram [name]
    (creating it empty).
    @raise Invalid_argument on a type conflict. *)
val observe : t -> string -> int -> unit

(** A resolved histogram handle: the name lookup done once.  Observing
    through a handle is O(1) and allocation-free — one table-lookup bucket
    computation and three in-place updates — so it is safe on simulation
    hot paths that record per-event latencies. *)
type hist

(** [hist t name] resolves (creating if needed) the histogram [name].
    Snapshots see observations made through the handle and through
    {!observe} identically.
    @raise Invalid_argument on a type conflict. *)
val hist : t -> string -> hist

(** [hist_observe h v] records [v] into [h]'s histogram. *)
val hist_observe : hist -> int -> unit

(** [declare_hist t name] ensures the histogram [name] exists (possibly
    empty), so a snapshot's key set does not depend on whether any
    observation happened. *)
val declare_hist : t -> string -> unit

(** Name-sorted snapshot of the registry. *)
val snapshot : t -> snapshot

val find : snapshot -> string -> value option

(** Deterministic JSON rendering of one value (single line, no spaces
    inside histograms). *)

(** [json_string s] is [s] as a quoted JSON string: quote, backslash and
    control bytes escaped ([\n], [\r], [\t] by name, the rest as [\u00XX]),
    every other byte (UTF-8 included) copied verbatim.  The one string
    escaper behind the metrics export, the result-cache envelope and the
    sweep [--metrics] document. *)
val json_string : string -> string

(** [snapshot_to_json ~indent snap] renders the snapshot as a JSON object,
    one ["name": value] member per line, each line prefixed by [indent]
    spaces; the closing brace is indented by [indent - 2].  Keys come out
    in snapshot (i.e. name) order, so the bytes are deterministic. *)
val snapshot_to_json : ?indent:int -> snapshot -> string
