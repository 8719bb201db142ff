(** The pliable software/hardware interface of the pipeline.

    Before a load issues speculatively, the pipeline consults the installed
    guard; the guard decides whether the load may execute (and thus leave
    microarchitectural side effects) or must be fenced until its Visibility
    Point.  Every defense scheme in this repository — FENCE, DOM, STT and the
    Perspective variants — is an implementation of this one interface. *)

type query = {
  insn_va : int;  (** VA of the load instruction *)
  fid : int;  (** function id of the load instruction *)
  addr : int;  (** effective (virtual) address being accessed *)
  asid : int;  (** current address-space id *)
  kernel_mode : bool;  (** CPU privilege mode (kernel execution covers transient wrong-path user code reached from kernel context) *)
  speculative : bool;  (** does an older unresolved control-flow instruction exist? *)
  l1_hit : bool;  (** would the access hit in the L1D right now? *)
  tainted : bool;  (** do the address operands derive from a speculative load? *)
}

type source =
  | Isv  (** fenced because the instruction is outside the ISV *)
  | Dsv  (** fenced because the data is outside the DSV *)
  | Baseline  (** fenced by a view-agnostic scheme (FENCE/DOM/STT) *)

type decision = Allow | Block of source

type t = {
  name : string;
  check : query -> decision;
  notify_vp : (insn_va:int -> addr:int -> asid:int -> kernel_mode:bool -> unit) option;
      (** Called once when a load reaches its Visibility Point; Perspective
          uses it for the deferred LRU update of its view caches (§6.2). *)
  spec_read : (key:int -> asid:int -> int) option;
      (** When set, a speculative load's memory access is redirected here
          instead of filling the real cache hierarchy: the guard returns the
          access latency and tracks the line in its own shadow structures
          (SafeSpec/SpecBox).  Non-speculative loads always use the real
          hierarchy.  [key] is the physical line key
          ([Layout.phys_key ~asid addr]). *)
  notify_squash : (asid:int -> unit) option;
      (** Called once per pipeline squash, before re-steer; shadow-structure
          schemes discard speculative fills here. *)
  shadow_btb : bool;
      (** When true the BTB is treated as a shadow structure: speculative
          resolve-time updates are suppressed and the BTB learns indirect
          targets only at commit (SafeSpec shadow BTB). *)
  holds_to_vp : bool;
      (** [check] answers from [speculative] alone and has no effect.  The
          pipeline then asks about a blocked speculative load again only
          once no older control is unresolved, instead of on every issue
          pass: until then the answer cannot change, so skipping the
          re-queries changes nothing but their count.  FENCE sets it; every
          other guard leaves it false. *)
}

val allow_all : t
(** The UNSAFE configuration: never blocks anything. *)
