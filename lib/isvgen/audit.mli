(** Audit-hardened ISVs — ISV++ (paper §5.4, §6.1 "Enhancing ISVs with
    Auditing"): every kernel function the gadget scanner flags is excluded
    from the view, so all identified gadgets are blocked from speculative
    execution. *)

val harden :
  Perspective.Isv.t -> gadget_nodes:int list -> Perspective.Isv.t
(** A new [ISV++] view: the input view minus the flagged functions. *)
