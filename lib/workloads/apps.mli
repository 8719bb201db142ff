(** Datacenter application models for Figure 9.3: request loops whose
    system-call mix and user/kernel time split match each server's character
    (paper Chapter 7 measured 50% / 65% / 65% / 53% kernel time for httpd,
    nginx, memcached and redis over loopback). *)

type app = {
  name : string;
  request : (int * int array) list;  (** system calls per request (hot loop) *)
  background : int list;
      (** the rest of the app's syscall footprint: startup, logging, memory
          management, timers — rarely on the hot path but part of the binary's
          interface, hence of its ISVs *)
  user_work : int;  (** user-mode compute per request *)
  requests : int;  (** scaled request count per measurement *)
  paper_unsafe_krps : float;  (** paper's UNSAFE throughput (kilo-requests/s) *)
}

val httpd : app
val nginx : app
val memcached : app
val redis : app
val all : app list

val footprint : app -> int list
(** Hot-loop plus background syscalls: the app's full kernel interface. *)

val all_syscalls : int list

val scaled : app -> factor:float -> app
(** Scale the request count by [factor], rounding to the nearest integer
    (floor 2 so a measurement always has a steady-state request).  Raises
    [Invalid_argument] when [factor] is not positive — truncation used to
    hide that silently. *)
