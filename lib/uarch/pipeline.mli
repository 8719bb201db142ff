(** Cycle-level out-of-order speculative pipeline (the gem5 substitute).

    Models the parts of an OOO core that matter for transient-execution
    attacks and defenses:

    - fetch along the predicted path (TAGE direction prediction, BTB for
      indirect calls, RAS for returns, L1I timing);
    - register renaming, a reorder buffer, load/store queues with
      store-to-load forwarding, out-of-order issue, in-order commit;
    - squash on branch/indirect/return misprediction with precise
      architectural state recovery — but {e microarchitectural} state
      (cache fills performed by transient loads, predictor updates) survives
      the squash: that residue is the covert channel;
    - a pluggable {!Guard} consulted before any load issues speculatively:
      this is the hardware half of Perspective's pliable interface.  Blocked
      loads wait for their Visibility Point (no older instruction can squash
      them) and then issue non-speculatively, as in §6.2 of the paper.

    Microarchitectural state (caches, predictors, counters) persists across
    {!run} calls so that one process can mistrain structures that a later run
    of another process consults.

    The cycle loop is event-driven and cycle-exact against the seed model
    (DESIGN.md §10).  An issue pass visits, in ROB order, only Waiting
    entries that can act and loads that may reach their Visibility Point;
    every other Waiting entry sits on the wait list of the one in-flight
    entry whose completion (or, for a store, address) can unblock it.
    Completion walks only the Issued entries.  A cycle in which nothing can
    happen is skipped, its stall class, kernel cycles and fuel charged in
    bulk up to the next completion or fetch-ready cycle. *)

type config = {
  fetch_width : int;
  issue_width : int;
  commit_width : int;
  rob_entries : int;
  lq_entries : int;
  sq_entries : int;
  btb_entries : int;
  ras_entries : int;
  branch_latency : int;
      (** cycles from issue to resolution of branches and indirect calls —
          the execute-depth that opens the speculation window *)
  mispredict_penalty : int;  (** front-end refill cycles after a squash *)
  retpoline : bool;
      (** software Spectre-v2 spot mitigation: indirect calls bypass the BTB
          and stall fetch until they resolve *)
  kernel_entry_cycles : int;  (** user->kernel transition cost *)
  kernel_exit_cycles : int;  (** kernel->user transition cost *)
  max_cycles : int;
      (** cycle-fuel watchdog: the default fuel of {!run}, so a livelocked
          simulation terminates with a structured [Out_of_fuel] outcome
          instead of spinning forever *)
  trace_events : bool;
      (** record squash / fence / VP-release events and the D-cache line of
          every load reaching its Visibility Point ([Ev_dload]) in a bounded
          ring (off by default: the disabled path is a single test) *)
  trace_capacity : int;
      (** the ring's capacity when tracing; the last N events win.  It is
          not allocated up front: the ring starts empty and doubles (from 16
          slots) as events arrive, so a short traced run costs what it
          records *)
}

val default_config : config
(** Table 7.1: 8-issue, 192 ROB, 62 LQ, 32 SQ, 4096-entry BTB, 16-entry RAS;
    [max_cycles = 20_000_000]. *)

type counters = {
  mutable cycles : int;
  mutable kernel_cycles : int;
  mutable committed : int;
  mutable committed_kernel : int;
  mutable committed_loads : int;
  mutable committed_kernel_loads : int;
  mutable syscalls : int;
  mutable squashes : int;
  mutable branch_mispredicts : int;
  mutable spec_loads : int;  (** loads issued while speculative *)
  mutable fences_isv : int;
  mutable fences_dsv : int;
  mutable fences_baseline : int;
  mutable stall_total : int;
      (** zero-commit cycles of a live run; equals the sum of the eight
          stall classes below, each zero-commit cycle being charged to
          exactly one class by root cause (see DESIGN.md §7) *)
  mutable stall_fetch : int;  (** ROB empty: the front end starved commit *)
  mutable stall_rob_full : int;
  mutable stall_lsq : int;
  mutable stall_fence_isv : int;
      (** head load parked by an ISV view miss, or waiting out memory
          latency that fence exposed by delaying its issue *)
  mutable stall_fence_dsv : int;  (** as [stall_fence_isv], for DSV misses *)
  mutable stall_fence_baseline : int;  (** as above, for FENCE/DOM/STT guards *)
  mutable stall_dram : int;
      (** head load/return waiting on the memory system (never fenced) *)
  mutable stall_exec : int;
      (** residual execution latency (branch resolution, ALU, operands in
          flight) — kept explicit so the breakdown always sums to
          [stall_total] *)
}

val zero_counters : unit -> counters
val add_counters : counters -> counters -> unit
(** [add_counters acc c] accumulates [c] into [acc]. *)

val diff_counters : counters -> counters -> counters
(** [diff_counters after before]. *)

val copy_counters : counters -> counters
val total_fences : counters -> int

val stall_classes : counters -> (string * int) list
(** The eight stall classes as [(name, cycles)] in rendering order; sums to
    [stall_total]. *)

val observe_metrics : Pv_util.Metrics.t -> counters -> unit
(** Register every counter under [pipeline.*] names ([pipeline.cycles],
    [pipeline.fences.dsv], [pipeline.stall.fence_isv], ...). *)

type t

val create : ?config:config -> Memsys.t -> Pv_isa.Program.t -> t
(** A new pipeline is an allocation followed by {!reset}. *)

val reset : t -> Pv_isa.Program.t -> t
(** [reset t prog] is [t] restored to its create-time state with [prog]
    installed: TAGE, BTB and RAS cleared, counters zeroed, no guard, clock
    at cycle 0, no hooks or saved user registers, no run outcome and an
    empty event ring (which keeps its grown buffer).  It returns a new
    handle on the same arrays; [t] must not be used again.  The memory
    system is not touched: with it reset too ({!Memsys.reset}), running a
    program on the result is indistinguishable from running it on
    [create ~config:(config t)] over a new memory system. *)

val config : t -> config
val counters : t -> counters
(** Cumulative across runs; copy before/after a run and use
    {!diff_counters} for per-run numbers. *)

val set_guard : t -> Guard.t -> unit

val ret_stack_va : asid:int -> depth:int -> int
(** VA of the return-stack slot a [Ret] at call depth [depth] reads; flushing
    this line widens the return's transient window (the Spectre-RSB lever). *)

type hooks = {
  on_syscall : int array -> Pv_isa.Iss.trap_action;
  on_sysret : int array -> Pv_isa.Iss.trap_action;
  on_commit : (int -> int -> Pv_isa.Insn.t -> unit) option;
      (** [(fid, idx, insn)] for each committed instruction. *)
}

type outcome = Halted | Out_of_fuel | Fault of string

type result = {
  outcome : outcome;
  cycles : int;
  committed : int;
  regs : int array;
}

val run :
  ?fuel:int ->
  ?regs:int array ->
  ?hooks:hooks ->
  t ->
  asid:int ->
  start:int ->
  result
(** Execute from instruction 0 of function [start] until a [Halt] commits, a
    fault commits, a [Stop] trap action, or [fuel] cycles elapse (default:
    the config's [max_cycles] watchdog).  Without [hooks], [Syscall] and
    [Sysret] are [Skip]ped and no commit is observed. *)

(** {2 Event trace}

    A bounded ring of cycle-stamped events, recorded only when
    [config.trace_events] is set.  [Ev_fence Isv]/[Ev_fence Dsv] {e is} the
    view-miss event: the guard parked the load because the speculation-view
    lookup failed. *)

type event_kind =
  | Ev_squash
  | Ev_fence of Guard.source
  | Ev_vp_release
  | Ev_dload of int
      (** D-cache access by an architecturally-surviving load, recorded at its
          Visibility Point; the payload is the physical line index.  Squashed
          transient loads never appear, so this trace is the sequential
          projection of the access stream — the contract checker's CT-seq
          observation. *)

type event = {
  ev_cycle : int;
  ev_kind : event_kind;
  ev_va : int;  (** VA of the instruction the event is about *)
  ev_seq : int;  (** its ROB sequence number *)
}

val events : t -> event list
(** The retained events, oldest first ([[]] when tracing is off).  At most
    [trace_capacity] events are kept; older ones are overwritten. *)

val event_to_json : event -> string
(** One JSONL line, deterministic bytes. *)

val write_events : Pv_util.Checksum.sink -> t -> unit
(** The retained events' {!event_to_json} lines (one writer serves both)
    joined by ['\n'], written straight from
    the ring: to a [Checksum.Digest] sink this folds
    [String.concat "\n" (List.map event_to_json (events t))] into the hash
    without building it. *)
