(** Physical memory: a frame pool managed by a binary-buddy allocator that
    tracks the owner of every allocation.

    Ownership tracking at allocation time is the foundation of DSVs (paper
    §5.2, §6.1): the buddy allocator obtains the cgroup of the requesting
    context and associates the allocated frames with that context's DSV for
    the corresponding direct-map pages. *)

type owner =
  | Kernel  (** kernel-owned: outside every process DSV *)
  | Cgroup of int  (** owned by a cgroup (container/process group) *)
  | Unknown  (** memory not allocated through tracked interfaces (§6.1) *)

val owner_equal : owner -> owner -> bool

type t

val create : frames:int -> t
(** [create ~frames] builds a pool of 4 KiB frames.  [frames] is rounded up
    to a power of two internally; only [frames] are usable. *)

val free_frames : t -> int

val alloc_pages : t -> order:int -> owner -> int option
(** Allocate a naturally aligned block of [2^order] frames for [owner];
    returns the first frame index, or [None] when memory is exhausted. *)

val free_pages : t -> frame:int -> order:int -> unit
(** Free a block previously returned by {!alloc_pages} with the same order.
    Raises [Invalid_argument] on double-free or bad alignment. *)

val owner_of : t -> int -> owner option
(** Owner of a frame; [None] when the frame is free. *)

val set_owner : t -> frame:int -> order:int -> owner -> unit
(** Domain reassignment of a live block (secure-slab page recycling, §9.2);
    counted in {!domain_reassignments}. *)

val domain_reassignments : t -> int

val frame_va : int -> int
(** Direct-map VA of frame [f] (its byte 0). *)

val frame_of_va : int -> int option
(** Frame index for a direct-map VA. *)
