(** The full-system machine: one OOO core ({!Pv_uarch.Pipeline}), the
    synthetic kernel ({!Pv_kernel.Kernel} + {!Pv_kernel.Kimage}), and an
    installed defense ({!Perspective.Defense}).

    Lifecycle:
    + {!create} with the set of system calls to realize in the kernel image;
    + {!add_process} for each workload (user ISA code is supplied as a
      function of the allocated base fid);
    + {!freeze} to build the program, memory system and pipeline;
    + optionally {!profile} workloads functionally (feeds dynamic ISVs);
    + {!install_defense};
    + {!run} user entry points on the pipeline.

    Microarchitectural state persists across runs; {!run} returns the
    per-run counter delta alongside the pipeline result. *)

type t

type handle
(** A spawned process together with its user code. *)

val create :
  ?pipe_config:Pv_uarch.Pipeline.config ->
  seed:int ->
  syscalls:int list ->
  unit ->
  t

val kernel : t -> Pv_kernel.Kernel.t
val kimage : t -> Pv_kernel.Kimage.t

val add_process :
  t ->
  name:string ->
  user_funcs:(base_fid:int -> Pv_isa.Program.func list) ->
  entry:int ->
  handle
(** [entry] is the index (within the returned list) of the run entry
    function.  Must be called before {!freeze}. *)

val process : handle -> Pv_kernel.Process.t

val freeze : t -> unit
(** Build the program and pipeline; seeds per-process dispatch tables and
    working-set memory.  Raises if called twice or before any process. *)

val pipeline : t -> Pv_uarch.Pipeline.t

val profile :
  t -> handle -> workload:(int * int array) list -> repetitions:int -> unit
(** Functional-only workload execution feeding the tracing subsystem
    (dynamic ISV profiles), including dispatch-target accounting. *)

val install_defense :
  t ->
  ?gadget_nodes:int list ->
  ?block_unknown:bool ->
  ?isv_cache_entries:int ->
  ?dsv_cache_entries:int ->
  Perspective.Defense.scheme ->
  unit
(** Build views for every process from its traced (or realized) syscall set
    and install the scheme's guard on the pipeline.  [gadget_nodes] feeds
    ISV++ hardening. *)

val defense : t -> Perspective.Defense.t option

val run :
  ?fuel:int ->
  ?regs:int array ->
  ?on_commit:(int -> int -> Pv_isa.Insn.t -> unit) ->
  t ->
  handle ->
  Pv_uarch.Pipeline.result * Pv_uarch.Pipeline.counters
(** Execute the process's user entry until [Halt]; returns the result and
    this run's counter delta.  [fuel] defaults to twice the pipeline
    config's [max_cycles] watchdog (a full run spans many syscalls), i.e.
    40M cycles with the stock config.  [on_commit] observes every committed
    [(fid, idx, insn)] in architectural order — the equivalence suite uses
    it to digest the commit stream of a full machine run. *)

exception Run_timeout of { name : string; cycles : int; committed : int }
(** A run hit its cycle-fuel watchdog: the structured form of a livelocked
    simulation.  Registered with a human-readable [Printexc] printer. *)

exception Run_fault of { name : string; msg : string }
(** A run committed a fault. *)

val check_result : name:string -> Pv_uarch.Pipeline.result -> unit
(** [check_result ~name r] is the supervision bridge: it turns a non-[Halted]
    pipeline outcome into {!Run_timeout} / {!Run_fault} so the experiment
    layer's supervisor can classify and report it per cell. *)

(** {1 Self-contained runs} *)

val run_job :
  ?fuel:int ->
  ?on_commit:(int -> int -> Pv_isa.Insn.t -> unit) ->
  ?pipe_config:Pv_uarch.Pipeline.config ->
  ?block_unknown:bool ->
  ?view_cache_entries:int ->
  seed:int ->
  syscalls:int list ->
  name:string ->
  user_funcs:(base_fid:int -> Pv_isa.Program.func list) ->
  profile:(int * int array) list ->
  Perspective.Defense.scheme ->
  t * handle * Pv_uarch.Pipeline.result * Pv_uarch.Pipeline.counters
(** One measurement run on a {e private} machine — kernel, memory, pipeline,
    RNG and view caches — so equal inputs yield bit-identical results in
    any process or domain: {!create}, {!add_process} with entry 0,
    {!freeze}, 25 {!profile} passes over [profile], the Kasper gadget
    corpus planted for ISV++ only, {!install_defense} with
    [view_cache_entries] (default 128) for both view caches, then {!run}.
    The machine and handle returned give post-run statistics. *)
