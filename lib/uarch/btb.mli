(** Branch target buffer for indirect calls.

    Set-associative, indexed and partially tagged by virtual address bits
    only — no address-space tag and no privilege tag.  Partial tagging means
    differently privileged code at aliasing addresses shares entries, which is
    the injection vector for Spectre-v2-style speculative control-flow
    hijacking (paper §4.1). *)

type t

val create : ?entries:int -> unit -> t
(** 4 ways; [entries] defaults to 4096 (Table 7.1).  Raises
    [Invalid_argument] unless [entries] is a multiple of 4. *)

val reset : t -> unit
(** Restore the create-time state: no entry valid, recency clock zero. *)

val lookup : t -> int -> int option
(** [lookup t pc] is the predicted target VA, if any. *)

val update : t -> int -> int -> unit
(** [update t pc target] trains the entry for [pc] (called at resolution). *)
