(** Instruction Speculation Views (paper §5.1, §5.3, §5.4).

    An ISV is the set of kernel functions a context trusts to execute
    transmitter instructions speculatively.  Membership is held as a bitset
    over callgraph nodes; it is mutable so a view can be patched at runtime
    to exclude a newly discovered gadget without a kernel update. *)

type kind =
  | All  (** unprotected: every kernel function is in view *)
  | Static  (** from static binary analysis (system-call interposition) *)
  | Dynamic  (** from kernel tracing *)
  | Plus  (** dynamic, hardened with gadget-audit results (ISV++) *)

type t

val all : nnodes:int -> t
val of_nodes : Pv_util.Bitset.t -> t
(** A view of the given nodes (copied: the view does not alias them).  The
    {!kind} that produced the nodes lives in the defense scheme. *)

val member : t -> int -> bool
val size : t -> int

val exclude : t -> int -> unit
(** Swift gadget patching: drop one function from the view. *)

val nodes : t -> Pv_util.Bitset.t
(** Copy of the membership set. *)

val reduction_vs_kernel : t -> float
(** Attack-surface reduction: percentage of kernel functions outside the
    view (Table 8.1's metric). *)
