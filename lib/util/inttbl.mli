(** Hash tables keyed by ints, hashed and compared as ints: no polymorphic
    [caml_hash] or [compare] per access, as the generic [Hashtbl] makes.
    Iteration order differs from a generic table's; no user depends on
    it. *)

include Hashtbl.S with type key = int
