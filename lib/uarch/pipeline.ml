module Insn = Pv_isa.Insn
module Layout = Pv_isa.Layout
module Program = Pv_isa.Program
module Mem = Pv_isa.Mem
module Iss = Pv_isa.Iss
module Checksum = Pv_util.Checksum

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
  mispredict_penalty : int;
  retpoline : bool;
  kernel_entry_cycles : int;
  kernel_exit_cycles : int;
  max_cycles : int;
  trace_events : bool;
  trace_capacity : int;
}

let default_config =
  {
    fetch_width = 8;
    issue_width = 8;
    commit_width = 8;
    rob_entries = 192;
    lq_entries = 62;
    sq_entries = 32;
    btb_entries = 4096;
    ras_entries = 16;
    branch_latency = 6;
    mispredict_penalty = 8;
    retpoline = false;
    kernel_entry_cycles = 120;
    kernel_exit_cycles = 90;
    max_cycles = 20_000_000;
    trace_events = false;
    trace_capacity = 4096;
  }

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
  mutable spec_loads : int;
  mutable fences_isv : int;
  mutable fences_dsv : int;
  mutable fences_baseline : int;
  (* Stall attribution: every zero-commit cycle of a live run is charged to
     exactly one class, so the eight classes sum to [stall_total]. *)
  mutable stall_total : int;
  mutable stall_fetch : int;
  mutable stall_rob_full : int;
  mutable stall_lsq : int;
  mutable stall_fence_isv : int;
  mutable stall_fence_dsv : int;
  mutable stall_fence_baseline : int;
  mutable stall_dram : int;
  mutable stall_exec : int;
}

let zero_counters () =
  {
    cycles = 0;
    kernel_cycles = 0;
    committed = 0;
    committed_kernel = 0;
    committed_loads = 0;
    committed_kernel_loads = 0;
    syscalls = 0;
    squashes = 0;
    branch_mispredicts = 0;
    spec_loads = 0;
    fences_isv = 0;
    fences_dsv = 0;
    fences_baseline = 0;
    stall_total = 0;
    stall_fetch = 0;
    stall_rob_full = 0;
    stall_lsq = 0;
    stall_fence_isv = 0;
    stall_fence_dsv = 0;
    stall_fence_baseline = 0;
    stall_dram = 0;
    stall_exec = 0;
  }

let add_counters a c =
  a.cycles <- a.cycles + c.cycles;
  a.kernel_cycles <- a.kernel_cycles + c.kernel_cycles;
  a.committed <- a.committed + c.committed;
  a.committed_kernel <- a.committed_kernel + c.committed_kernel;
  a.committed_loads <- a.committed_loads + c.committed_loads;
  a.committed_kernel_loads <- a.committed_kernel_loads + c.committed_kernel_loads;
  a.syscalls <- a.syscalls + c.syscalls;
  a.squashes <- a.squashes + c.squashes;
  a.branch_mispredicts <- a.branch_mispredicts + c.branch_mispredicts;
  a.spec_loads <- a.spec_loads + c.spec_loads;
  a.fences_isv <- a.fences_isv + c.fences_isv;
  a.fences_dsv <- a.fences_dsv + c.fences_dsv;
  a.fences_baseline <- a.fences_baseline + c.fences_baseline;
  a.stall_total <- a.stall_total + c.stall_total;
  a.stall_fetch <- a.stall_fetch + c.stall_fetch;
  a.stall_rob_full <- a.stall_rob_full + c.stall_rob_full;
  a.stall_lsq <- a.stall_lsq + c.stall_lsq;
  a.stall_fence_isv <- a.stall_fence_isv + c.stall_fence_isv;
  a.stall_fence_dsv <- a.stall_fence_dsv + c.stall_fence_dsv;
  a.stall_fence_baseline <- a.stall_fence_baseline + c.stall_fence_baseline;
  a.stall_dram <- a.stall_dram + c.stall_dram;
  a.stall_exec <- a.stall_exec + c.stall_exec

let copy_counters c =
  {
    cycles = c.cycles;
    kernel_cycles = c.kernel_cycles;
    committed = c.committed;
    committed_kernel = c.committed_kernel;
    committed_loads = c.committed_loads;
    committed_kernel_loads = c.committed_kernel_loads;
    syscalls = c.syscalls;
    squashes = c.squashes;
    branch_mispredicts = c.branch_mispredicts;
    spec_loads = c.spec_loads;
    fences_isv = c.fences_isv;
    fences_dsv = c.fences_dsv;
    fences_baseline = c.fences_baseline;
    stall_total = c.stall_total;
    stall_fetch = c.stall_fetch;
    stall_rob_full = c.stall_rob_full;
    stall_lsq = c.stall_lsq;
    stall_fence_isv = c.stall_fence_isv;
    stall_fence_dsv = c.stall_fence_dsv;
    stall_fence_baseline = c.stall_fence_baseline;
    stall_dram = c.stall_dram;
    stall_exec = c.stall_exec;
  }

let diff_counters a b =
  {
    cycles = a.cycles - b.cycles;
    kernel_cycles = a.kernel_cycles - b.kernel_cycles;
    committed = a.committed - b.committed;
    committed_kernel = a.committed_kernel - b.committed_kernel;
    committed_loads = a.committed_loads - b.committed_loads;
    committed_kernel_loads = a.committed_kernel_loads - b.committed_kernel_loads;
    syscalls = a.syscalls - b.syscalls;
    squashes = a.squashes - b.squashes;
    branch_mispredicts = a.branch_mispredicts - b.branch_mispredicts;
    spec_loads = a.spec_loads - b.spec_loads;
    fences_isv = a.fences_isv - b.fences_isv;
    fences_dsv = a.fences_dsv - b.fences_dsv;
    fences_baseline = a.fences_baseline - b.fences_baseline;
    stall_total = a.stall_total - b.stall_total;
    stall_fetch = a.stall_fetch - b.stall_fetch;
    stall_rob_full = a.stall_rob_full - b.stall_rob_full;
    stall_lsq = a.stall_lsq - b.stall_lsq;
    stall_fence_isv = a.stall_fence_isv - b.stall_fence_isv;
    stall_fence_dsv = a.stall_fence_dsv - b.stall_fence_dsv;
    stall_fence_baseline = a.stall_fence_baseline - b.stall_fence_baseline;
    stall_dram = a.stall_dram - b.stall_dram;
    stall_exec = a.stall_exec - b.stall_exec;
  }

let total_fences c = c.fences_isv + c.fences_dsv + c.fences_baseline

(* The stall classes by attributed cycles, in rendering order.  Their sum
   equals [stall_total] by construction (see [classify_stall]). *)
let stall_classes c =
  [
    ("fetch", c.stall_fetch);
    ("rob_full", c.stall_rob_full);
    ("lsq", c.stall_lsq);
    ("fence_isv", c.stall_fence_isv);
    ("fence_dsv", c.stall_fence_dsv);
    ("fence_baseline", c.stall_fence_baseline);
    ("dram", c.stall_dram);
    ("exec", c.stall_exec);
  ]

let observe_metrics reg c =
  let set = Pv_util.Metrics.set_int reg in
  set "pipeline.cycles" c.cycles;
  set "pipeline.kernel_cycles" c.kernel_cycles;
  set "pipeline.committed" c.committed;
  set "pipeline.committed_kernel" c.committed_kernel;
  set "pipeline.committed_loads" c.committed_loads;
  set "pipeline.committed_kernel_loads" c.committed_kernel_loads;
  set "pipeline.syscalls" c.syscalls;
  set "pipeline.squashes" c.squashes;
  set "pipeline.branch_mispredicts" c.branch_mispredicts;
  set "pipeline.spec_loads" c.spec_loads;
  set "pipeline.fences.isv" c.fences_isv;
  set "pipeline.fences.dsv" c.fences_dsv;
  set "pipeline.fences.baseline" c.fences_baseline;
  set "pipeline.fences.total" (total_fences c);
  set "pipeline.stall.total" c.stall_total;
  List.iter (fun (name, v) -> set ("pipeline.stall." ^ name) v) (stall_classes c)

type state = Waiting | Issued | Completed

(* ROB entries are preallocated once per pipeline and reused in place: the
   cycle loop never allocates one.  All scalar fields are mutable ints and
   bools; only the return-stack snapshot ([stack_snap]), the guard's
   [blocked] source and the rare [fault] are boxed. *)
type entry = {
  mutable seq : int;
  mutable e_fid : int;
  mutable e_idx : int;
  mutable va : int;
  mutable insn : Insn.t;
  mutable dest : int;
  (* flattened operands: seq of in-flight producer (-1 when the value is
     captured) and the captured value, for each of the two source slots *)
  mutable src_seq0 : int;
  mutable src_seq1 : int;
  mutable src_val0 : int;
  mutable src_val1 : int;
  mutable state : state;
  (* Instruction class, fixed at dispatch: the per-entry paths test these
     instead of matching on the instruction variant. *)
  mutable is_ctrl : bool;
  mutable is_load : bool;
  mutable is_store : bool;
  mutable is_fence : bool;
  mutable kernel : bool;
  mutable pred_taken : bool;
  mutable actual_taken : bool;
  mutable resolved : bool;
  mutable vp_done : bool;
  mutable addr_known : bool;
  mutable blocked : Guard.source option; (* why the guard first fenced it *)
  mutable value : int;
  mutable eff_addr : int;
  mutable store_val : int;
  mutable pred_target_va : int; (* -1 when fetch stalled on this entry *)
  mutable actual_target_va : int;
  mutable tage_meta : Tage.meta;
  mutable ghr_snap : int;
  mutable stack_snap : int list;
  mutable depth_snap : int;
  mutable ret_target : int;
  mutable ret_depth : int;
  mutable taint_root : int;
  mutable fault : string option;
}

(* [Fetching] reads [fetch_fid]/[fetch_idx]; [Stalled_ctrl] waits for the
   control in flight with seq [fetch_seq] to resolve. *)
type fetch_state = Fetching | Stalled_ctrl | Stalled_serial | Stopped

type hooks = {
  on_syscall : int array -> Iss.trap_action;
  on_sysret : int array -> Iss.trap_action;
  on_commit : (int -> int -> Insn.t -> unit) option;
}

let null_hooks =
  { on_syscall = (fun _ -> Iss.Skip); on_sysret = (fun _ -> Iss.Skip); on_commit = None }

type outcome = Halted | Out_of_fuel | Fault of string

type result = { outcome : outcome; cycles : int; committed : int; regs : int array }

(* Bounded event trace: cycle-stamped pipeline events kept in a ring of
   [trace_capacity] entries when [config.trace_events] is on.  A fence event
   (Ev_fence Isv/Dsv) is exactly a view miss — the guard blocked the load
   because the ISV/DSV lookup said "out of view". *)
type event_kind =
  | Ev_squash
  | Ev_fence of Guard.source
  | Ev_vp_release
  | Ev_dload of int  (* physical line key; recorded at the Visibility Point *)

type event = { ev_cycle : int; ev_kind : event_kind; ev_va : int; ev_seq : int }

let dummy_event = { ev_cycle = 0; ev_kind = Ev_squash; ev_va = 0; ev_seq = -1 }

type t = {
  cfg : config;
  memsys : Memsys.t;
  mem : Mem.t; (* [Memsys.mem memsys] *)
  l1i_latency : int;
  prog : Program.t;
  tage : Tage.t;
  btb : Btb.t;
  ras : Ras.t;
  ctrs : counters;
  mutable guard : Guard.t;
  (* run state *)
  rob : entry array; (* preallocated pool; head/count delimit the live window *)
  retired_seq : int array;
  retired_val : int array;
  arf : int array;
  rat : int array;
  mutable captured : int; (* the value [capture] found *)
  (* Slot sets: bitsets over ROB slots, 32 slots per word, walked from
     [head] in ROB order, so they keep seq order with no sorting.  Bits of
     slots outside the live window are stale and never read; [make_entry]
     resets every set's bit for the slot it fills. *)
  nw : int; (* words per set *)
  vis : int array; (* Waiting entries the issue pass must visit *)
  vpp : int array; (* issued loads short of their visibility point *)
  iss : int array; (* Issued entries: what completion checks *)
  inc : int array; (* entries not yet Completed: fence blockers *)
  unres : int array; (* unresolved controls *)
  ifence : int array; (* incomplete fences *)
  stq : int array; (* stores: forwarding candidates *)
  unk : int array; (* stores whose address is not yet known *)
  (* Wait lists: words [target * nw ..] hold the slots waiting on the entry
     in slot [target]; waking ORs them into [vis].  Bit [w] of [wlw.(target)]
     is set when word [w] of that list may be non-zero, so a wake reads only
     those words, and a wake without waiters tests one int. *)
  wl : int array;
  wlw : int array;
  mutable head : int;
  mutable count : int;
  mutable next_seq : int;
  mutable ghr : int;
  mutable fetch : fetch_state;
  mutable fetch_fid : int;
  mutable fetch_idx : int;
  mutable fetch_seq : int;
  mutable fetch_ready_at : int;
  mutable last_fetch_line : int;
  mutable dispatch_stack : int list;
  mutable dispatch_depth : int;
  mutable commit_stack : int list;
  mutable commit_depth : int;
  mutable lq_used : int;
  mutable sq_used : int;
  (* The cycle each Issued entry finishes, by slot: one flat array, so the
     completion walk reads no entry that is not due. *)
  done_at : int array;
  (* Lower bound on the earliest [done_at] of any Issued entry: completion
     runs only when one can be due, and it recomputes the exact bound. *)
  mutable next_done_at : int;
  mutable now : int;
  mutable asid : int;
  mutable kernel_mode : bool;
  mutable run_outcome : outcome option;
  mutable saved_user_regs : int array option;
  mutable hooks : hooks;
  (* Event ring: [trace_cap] is 0 when tracing is off, so the disabled path
     costs one test.  [trace_buf] starts empty and doubles as events arrive,
     up to [trace_cap] slots; once full it wraps. *)
  trace_cap : int;
  mutable trace_buf : event array;
  mutable trace_count : int;
}

let fresh_entry () =
  {
    seq = -1;
    e_fid = 0;
    e_idx = 0;
    va = 0;
    insn = Insn.Nop;
    dest = -1;
    src_seq0 = -1;
    src_seq1 = -1;
    src_val0 = 0;
    src_val1 = 0;
    state = Waiting;
    is_ctrl = false;
    is_load = false;
    is_store = false;
    is_fence = false;
    kernel = false;
    pred_taken = false;
    actual_taken = false;
    resolved = false;
    vp_done = false;
    addr_known = false;
    blocked = None;
    value = 0;
    eff_addr = 0;
    store_val = 0;
    pred_target_va = -1;
    actual_target_va = -1;
    tage_meta = 0;
    ghr_snap = 0;
    stack_snap = [];
    depth_snap = 0;
    ret_target = -1;
    ret_depth = 0;
    taint_root = -1;
    fault = None;
  }

(* Restore what outlives a run to its create-time state: predictors,
   counters, guard, clock, hooks, saved user registers, the run outcome and
   the event ring's count (the ring keeps its grown buffer).  The rest of
   the run state is set by [reset_run_state] at the start of every run.
   [prog] is immutable, so the machine comes back as a new record around
   the same arrays; the old record must not be used again. *)
let reset t prog =
  Tage.reset t.tage;
  Btb.reset t.btb;
  Ras.clear t.ras;
  {
    t with
    prog;
    ctrs = zero_counters ();
    guard = Guard.allow_all;
    now = 0;
    hooks = null_hooks;
    saved_user_regs = None;
    run_outcome = None;
    trace_count = 0;
  }

let create ?(config = default_config) memsys prog =
  let cap = config.rob_entries in
  (* A wait list's word mask ([wlw]) has one bit per word of a slot set. *)
  if cap < 1 || cap > 62 * 32 then
    invalid_arg (Printf.sprintf "Pipeline.create: rob_entries %d is not in 1..1984" cap);
  let nw = (cap + 31) / 32 in
  let set () = Array.make nw 0 in
  (* [reset] sets the fields it owns; their values here only fill the
     record. *)
  reset
    {
      cfg = config;
      memsys;
      mem = Memsys.mem memsys;
      l1i_latency = Cache.latency (Memsys.l1i memsys);
      prog;
      tage = Tage.create ();
      btb = Btb.create ~entries:config.btb_entries ();
      ras = Ras.create ~entries:config.ras_entries ();
      ctrs = zero_counters ();
      guard = Guard.allow_all;
      rob = Array.init cap (fun _ -> fresh_entry ());
      retired_seq = Array.make cap (-1);
      retired_val = Array.make cap 0;
      arf = Array.make Insn.num_regs 0;
      rat = Array.make Insn.num_regs (-1);
      captured = 0;
      nw;
      vis = set ();
      vpp = set ();
      iss = set ();
      inc = set ();
      unres = set ();
      ifence = set ();
      stq = set ();
      unk = set ();
      wl = Array.make (cap * nw) 0;
      wlw = Array.make cap 0;
      head = 0;
      count = 0;
      next_seq = 0;
      ghr = 0;
      fetch = Stopped;
      fetch_fid = 0;
      fetch_idx = 0;
      fetch_seq = -1;
      fetch_ready_at = 0;
      last_fetch_line = -1;
      dispatch_stack = [];
      dispatch_depth = 0;
      commit_stack = [];
      commit_depth = 0;
      lq_used = 0;
      sq_used = 0;
      done_at = Array.make cap 0;
      next_done_at = max_int;
      now = 0;
      asid = 0;
      kernel_mode = false;
      run_outcome = None;
      saved_user_regs = None;
      hooks = null_hooks;
      trace_cap = (if config.trace_events then Int.max 0 config.trace_capacity else 0);
      trace_buf = [||];
      trace_count = 0;
    }
    prog

let config t = t.cfg
let counters t = t.ctrs
let set_guard t g = t.guard <- g

(* Until the ring first fills, [trace_count] is below the buffer's length
   and events sit at their own index; growing copies that prefix, so the
   wrap-around below starts only once the buffer has [trace_cap] slots. *)
let record_event t kind ~va ~seq =
  if t.trace_cap > 0 then begin
    let n = Array.length t.trace_buf in
    if t.trace_count = n && n < t.trace_cap then begin
      let grown = Array.make (Int.min t.trace_cap (Int.max 16 (2 * n))) dummy_event in
      Array.blit t.trace_buf 0 grown 0 n;
      t.trace_buf <- grown
    end;
    t.trace_buf.(t.trace_count mod Array.length t.trace_buf) <-
      { ev_cycle = t.now; ev_kind = kind; ev_va = va; ev_seq = seq };
    t.trace_count <- t.trace_count + 1
  end

(* The retained events, oldest first, handed to [f] in place. *)
let iter_events t f =
  let n = Array.length t.trace_buf in
  let len = Int.min t.trace_count n in
  let start = t.trace_count - len in
  for i = 0 to len - 1 do
    f t.trace_buf.((start + i) mod n)
  done

let events t =
  let acc = ref [] in
  iter_events t (fun ev -> acc := ev :: !acc);
  List.rev !acc

let source_name = function
  | Guard.Isv -> "isv"
  | Guard.Dsv -> "dsv"
  | Guard.Baseline -> "baseline"

let write_event out ev =
  Checksum.put_string out {|{"cycle":|};
  Checksum.put_int out ev.ev_cycle;
  (match ev.ev_kind with
  | Ev_squash -> Checksum.put_string out {|,"kind":"squash"|}
  | Ev_fence src ->
    Checksum.put_string out {|,"kind":"fence","source":"|};
    Checksum.put_string out (source_name src);
    Checksum.put_char out '"'
  | Ev_vp_release -> Checksum.put_string out {|,"kind":"vp_release"|}
  | Ev_dload line ->
    Checksum.put_string out {|,"kind":"dload","line":|};
    Checksum.put_int out line);
  Checksum.put_string out {|,"va":|};
  Checksum.put_int out ev.ev_va;
  Checksum.put_string out {|,"seq":|};
  Checksum.put_int out ev.ev_seq;
  Checksum.put_char out '}'

let event_to_json ev = Checksum.render write_event ev

let write_events out t =
  let first = ref true in
  iter_events t (fun ev ->
      if not !first then Checksum.put_char out '\n';
      first := false;
      write_event out ev)

let ret_stack_base = 0x5F00_0000_0000

let ret_stack_va ~asid ~depth = ret_stack_base + (asid lsl 24) + (depth * 8)

let cap t = Array.length t.rob

(* The small helpers of the per-cycle paths are [@inline]: the stage
   functions call none of them (CI checks the binary with [objdump]). *)
let[@inline] pos_of_seq t s = s - (t.next_seq - t.count)

(* [pos] is always within the live window, and head + pos < 2*capacity, so
   the ring wrap is a compare-and-subtract rather than a division. *)
let[@inline] slot_at t pos =
  let i = t.head + pos in
  if i >= Array.length t.rob then i - Array.length t.rob else i

let[@inline] entry_at t pos = Array.unsafe_get t.rob (slot_at t pos)

(* ------------------------------------------------------------------ *)
(* Slot sets                                                            *)
(* ------------------------------------------------------------------ *)

let[@inline] bit_set bs s =
  let w = s lsr 5 in
  Array.unsafe_set bs w (Array.unsafe_get bs w lor (1 lsl (s land 31)))

let[@inline] bit_clear bs s =
  let w = s lsr 5 in
  Array.unsafe_set bs w (Array.unsafe_get bs w land lnot (1 lsl (s land 31)))

let[@inline] bit_put bs s b = if b then bit_set bs s else bit_clear bs s

(* Index of the lowest set bit of a non-zero 32-bit word (de Bruijn). *)
let debruijn =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let[@inline] ctz x =
  Array.unsafe_get debruijn ((((x land (-x)) * 0x077CB531) land 0xFFFF_FFFF) lsr 27)

(* Lowest set slot >= [s] in words [s lsr 5 .. last], or -1. *)
let[@inline] next_slot bs last s =
  let w = ref (s lsr 5) in
  let x = ref (Array.unsafe_get bs !w land (-1 lsl (s land 31))) in
  while !x = 0 && !w < last do
    incr w;
    x := Array.unsafe_get bs !w
  done;
  if !x = 0 then -1 else (!w lsl 5) + ctz !x

(* First live position >= [p] whose slot is in [bs], or [count].  Only the
   words of the live window are read: slots [head + p .. head + count)
   taken round the ring, [head + p ..] first, then the wrapped part.  A
   member past the window's end in its last word reads as [count]. *)
let[@inline] next_pos t bs p =
  let n = t.count in
  if p >= n then n
  else begin
    let c = Array.length t.rob and h = t.head in
    let s = h + p and e = h + n in
    let r =
      if s < c then begin
        let r = next_slot bs ((Int.min e c - 1) lsr 5) s in
        if r >= 0 then r - h
        else if e > c then
          let r = next_slot bs ((e - c - 1) lsr 5) 0 in
          if r >= 0 then r + c - h else n
        else n
      end
      else
        let r = next_slot bs ((e - c - 1) lsr 5) (s - c) in
        if r >= 0 then r + c - h else n
    in
    if r < n then r else n
  end

(* Put the Waiting entry in [slot] on the wait list of the entry in
   [target]: it leaves the issue pass until that entry wakes it. *)
let[@inline] wait_on t slot target =
  let w = (target * t.nw) + (slot lsr 5) in
  Array.unsafe_set t.wl w (Array.unsafe_get t.wl w lor (1 lsl (slot land 31)));
  Array.unsafe_set t.wlw target (Array.unsafe_get t.wlw target lor (1 lsl (slot lsr 5)));
  bit_clear t.vis slot

(* The word mask has up to 62 bits and [ctz] reads 32: a mask with none
   of its low 32 bits set is searched in its high half. *)
let[@inline] wake t target =
  let m = ref (Array.unsafe_get t.wlw target) in
  if !m <> 0 then begin
    Array.unsafe_set t.wlw target 0;
    let base = target * t.nw in
    while !m <> 0 do
      let x = !m in
      let w = if x land 0xFFFF_FFFF <> 0 then ctz x else 32 + ctz (x lsr 32) in
      m := x land (x - 1);
      Array.unsafe_set t.vis w (Array.unsafe_get t.vis w lor Array.unsafe_get t.wl (base + w));
      Array.unsafe_set t.wl (base + w) 0
    done
  end

let func_space t fid = (Program.func t.prog fid).Program.space

(* The body of function [fid], or [||] past the program's end. *)
let body_of t fid =
  if fid >= 0 && fid < Program.length t.prog then (Program.func t.prog fid).Program.body
  else [||]

let insn_va_of t fid idx = Layout.insn_va (func_space t fid) fid idx

(* A taint root is an in-flight speculative load that has not yet reached its
   Visibility Point. *)
let[@inline] root_active t root =
  if root < 0 then false
  else
    let pos = pos_of_seq t root in
    if pos < 0 || pos >= t.count then false
    else
      let e = entry_at t pos in
      e.seq = root && not e.vp_done

(* Rename source registers [r0] and [r1] (-1 when absent): the seq of the
   in-flight producer, or the architectural value. *)
let[@inline] rename_srcs t e r0 r1 =
  e.src_seq0 <- (if r0 >= 0 then t.rat.(r0) else -1);
  e.src_val0 <- (if r0 >= 0 && e.src_seq0 < 0 then t.arf.(r0) else 0);
  e.src_seq1 <- (if r1 >= 0 then t.rat.(r1) else -1);
  e.src_val1 <- (if r1 >= 0 && e.src_seq1 < 0 then t.arf.(r1) else 0)

(* Reinitialize the pool entry at the ROB tail — the allocation-free
   equivalent of the seed model's fresh record per fetched instruction.
   Fields that only one class reads (prediction and return-stack snapshots,
   [store_val]) are left to the fetch or issue that sets them.
   [va] is the already-computed VA of (fid, idx). *)
let make_entry t fid idx ~va ~kernel insn =
  let slot = slot_at t t.count in
  let e = Array.unsafe_get t.rob slot in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  e.seq <- seq;
  e.e_fid <- fid;
  e.e_idx <- idx;
  e.va <- va;
  e.insn <- insn;
  e.dest <- -1;
  e.is_ctrl <- false;
  e.is_load <- false;
  e.is_store <- false;
  e.is_fence <- false;
  (match insn with
  | Insn.Nop | Insn.Syscall | Insn.Sysret | Insn.Halt | Insn.Jump _ | Insn.Call _ ->
    rename_srcs t e (-1) (-1)
  | Insn.Fence ->
    e.is_fence <- true;
    rename_srcs t e (-1) (-1)
  | Insn.Ret ->
    e.is_ctrl <- true;
    rename_srcs t e (-1) (-1)
  | Insn.Limm (rd, _) ->
    e.dest <- rd;
    rename_srcs t e (-1) (-1)
  | Insn.Alu (_, rd, r1, r2) ->
    e.dest <- rd;
    rename_srcs t e r1 r2
  | Insn.Alui (_, rd, r1, _) ->
    e.dest <- rd;
    rename_srcs t e r1 (-1)
  | Insn.Load (rd, r1, _) ->
    e.dest <- rd;
    e.is_load <- true;
    t.lq_used <- t.lq_used + 1;
    rename_srcs t e r1 (-1)
  | Insn.Store (r1, r2, _) ->
    e.is_store <- true;
    t.sq_used <- t.sq_used + 1;
    rename_srcs t e r1 r2
  | Insn.Branch (_, r1, r2, _) ->
    e.is_ctrl <- true;
    rename_srcs t e r1 r2
  | Insn.Icall r1 ->
    e.is_ctrl <- true;
    rename_srcs t e r1 (-1)
  | Insn.Flush (r1, _) -> rename_srcs t e r1 (-1));
  e.state <- Waiting;
  e.kernel <- kernel;
  e.resolved <- false;
  e.vp_done <- false;
  e.addr_known <- false;
  if Option.is_some e.blocked then e.blocked <- None;
  e.value <- 0;
  e.eff_addr <- 0;
  e.pred_target_va <- -1;
  e.actual_target_va <- -1;
  e.taint_root <- -1;
  (* Clearing only what is set spares the write barrier a boxed field costs. *)
  if Option.is_some e.fault then e.fault <- None;
  bit_clear t.vpp slot;
  bit_clear t.iss slot;
  bit_set t.inc slot;
  bit_put t.unres slot e.is_ctrl;
  bit_put t.ifence slot e.is_fence;
  bit_put t.stq slot e.is_store;
  bit_put t.unk slot e.is_store;
  if e.dest >= 0 then t.rat.(e.dest) <- seq;
  t.count <- t.count + 1;
  (* The new entry joins the issue pass, unless the operand capture it would
     try first is short-circuited by an incomplete producer: that attempt
     would fail with no effect, so it waits on the producer right away.  (A
     captured first operand still needs its visit: capturing it copies the
     value and the taint.) *)
  let dep = if e.src_seq0 >= 0 then e.src_seq0 else e.src_seq1 in
  let dep_slot = if dep >= 0 then slot_at t (pos_of_seq t dep) else -1 in
  if dep_slot >= 0 && (Array.unsafe_get t.rob dep_slot).state <> Completed then
    wait_on t slot dep_slot
  else bit_set t.vis slot;
  e

let rebuild_rat t =
  Array.fill t.rat 0 (Array.length t.rat) (-1);
  for i = 0 to t.count - 1 do
    let e = entry_at t i in
    if e.dest >= 0 then t.rat.(e.dest) <- e.seq
  done

(* Remove all entries younger than position [pos] (exclusive).  Their slots
   leave the live window, so the slot sets ignore them until [make_entry]
   reuses the slot.  Their own wait lists are emptied (an entry that
   completes or retires has already emptied its own).  A squashed waiter's
   bit left on a survivor's list only wakes the slot's next occupant for a
   visit that finds it still waiting. *)
let truncate_rob t pos =
  for i = pos + 1 to t.count - 1 do
    let slot = slot_at t i in
    if Array.unsafe_get t.wlw slot <> 0 then begin
      Array.unsafe_set t.wlw slot 0;
      Array.fill t.wl (slot * t.nw) t.nw 0
    end;
    let e = Array.unsafe_get t.rob slot in
    if e.is_load then t.lq_used <- t.lq_used - 1
    else if e.is_store then t.sq_used <- t.sq_used - 1
  done;
  let removed = t.count - pos - 1 in
  t.count <- pos + 1;
  t.next_seq <- t.next_seq - removed;
  rebuild_rat t

let fetch_at t fid idx =
  t.fetch <- Fetching;
  t.fetch_fid <- fid;
  t.fetch_idx <- idx

let stall_on t e =
  t.fetch <- Stalled_ctrl;
  t.fetch_seq <- e.seq

let redirect_fetch t va delay =
  (match Layout.decode_code_va va with
  | Some (_, fid, idx) -> fetch_at t fid idx
  | None -> t.fetch <- Stopped);
  t.fetch_ready_at <- t.now + delay;
  t.last_fetch_line <- -1

let squash t pos e target_va restore_stack restore_depth restore_ghr =
  t.ctrs.squashes <- t.ctrs.squashes + 1;
  record_event t Ev_squash ~va:e.va ~seq:e.seq;
  (match t.guard.Guard.notify_squash with
  | Some f -> f ~asid:t.asid
  | None -> ());
  truncate_rob t pos;
  t.dispatch_stack <- restore_stack;
  t.dispatch_depth <- restore_depth;
  t.ghr <- restore_ghr;
  if target_va >= 0 then redirect_fetch t target_va t.cfg.mispredict_penalty
  else t.fetch <- Stopped

(* An indirect call or return checked against its predicted target: resume
   a fetch that stalled on it (after [delay] cycles; a call also pushes its
   return address), or squash on a fault or a wrong target. *)
let resolve_target t pos e stack' depth' ~push ~delay =
  if e.pred_target_va = -1 then begin
    if t.fetch = Stalled_ctrl && t.fetch_seq = e.seq then begin
      if e.fault <> None then t.fetch <- Stopped
      else begin
        if push then Ras.push t.ras (e.va + Layout.insn_bytes);
        redirect_fetch t e.actual_target_va delay
      end
    end
  end
  else if e.fault <> None then squash t pos e (-1) stack' depth' t.ghr
  else if e.actual_target_va <> e.pred_target_va then begin
    t.ctrs.branch_mispredicts <- t.ctrs.branch_mispredicts + 1;
    squash t pos e e.actual_target_va stack' depth' t.ghr
  end

(* Resolution of a completed control-flow instruction at ROB position [pos];
   a misprediction squashes every younger entry. *)
let resolve_ctrl t pos e =
  e.resolved <- true;
  match e.insn with
  | Insn.Branch _ ->
    Tage.update t.tage ~pc:e.va ~hist:e.ghr_snap e.tage_meta ~taken:e.actual_taken;
    if e.actual_taken <> e.pred_taken then begin
      t.ctrs.branch_mispredicts <- t.ctrs.branch_mispredicts + 1;
      let ghr' = (e.ghr_snap lsl 1) lor if e.actual_taken then 1 else 0 in
      squash t pos e e.actual_target_va e.stack_snap e.depth_snap ghr'
    end
  | Insn.Icall _ ->
    (* Shadow-BTB schemes defer BTB training to commit: a squashed (transient)
       indirect call must leave no predictor state behind. *)
    if e.actual_target_va >= 0 && not t.guard.Guard.shadow_btb then
      Btb.update t.btb e.va e.actual_target_va;
    (* A retpolined indirect call pays for the capture sequence. *)
    resolve_target t pos e
      ((e.va + Layout.insn_bytes) :: e.stack_snap)
      (e.depth_snap + 1) ~push:true
      ~delay:(if t.cfg.retpoline then 24 else 1)
  | Insn.Ret ->
    resolve_target t pos e
      (match e.stack_snap with [] -> [] | _ :: rest -> rest)
      (Int.max 0 (e.depth_snap - 1))
      ~push:false ~delay:1
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Completion: turn finished executions into Completed entries and resolve
   control flow, oldest first.                                          *)
(* ------------------------------------------------------------------ *)

(* No-op unless a completion can be due ([next_done_at] is a lower bound).
   The walk visits only the Issued set, in ROB order: slot words from the
   head's word round the ring back to it, skipping slots outside the live
   window.  So same-cycle completions resolve oldest first, and the entries
   a squash removes fall outside the window before the walk reaches them.
   A completion wakes the entry's wait list; the others give the exact
   bound.  The word index steps round the ring by compare-and-subtract, and
   the walk stops at the word of the window's last slot ([last]-th word
   from the head's). *)
let completion_step t =
  if t.now >= t.next_done_at then begin
    t.next_done_at <- max_int;
    let h = t.head in
    let nw = t.nw in
    let tail = slot_at t (t.count - 1) in
    let last =
      if t.count = 0 then -1
      else if tail >= h then (tail lsr 5) - (h lsr 5)
      else nw - (h lsr 5) + (tail lsr 5)
    in
    for i = 0 to last do
      let w = (h lsr 5) + i in
      let w = if w >= nw then w - nw else w in
      let x = ref (Array.unsafe_get t.iss w) in
      if i = 0 then x := !x land (-1 lsl (h land 31))
      else if i = nw then x := !x land ((1 lsl (h land 31)) - 1);
      while !x <> 0 do
        let slot = (w lsl 5) + ctz !x in
        x := !x land (!x - 1);
        let pos = if slot >= h then slot - h else slot + cap t - h in
        let d = Array.unsafe_get t.done_at slot in
        if pos >= t.count then ()
        else if d <= t.now then begin
          let e = Array.unsafe_get t.rob slot in
          e.state <- Completed;
          bit_clear t.iss slot;
          bit_clear t.inc slot;
          bit_clear t.unres slot;
          bit_clear t.ifence slot;
          wake t slot;
          if e.is_ctrl then resolve_ctrl t pos e
        end
        else if d < t.next_done_at then t.next_done_at <- d
      done
    done
  end

(* ------------------------------------------------------------------ *)
(* Commit                                                               *)
(* ------------------------------------------------------------------ *)

(* A run starts at seq 0 in slot 0 and slots are taken in seq order, so an
   entry's slot is its seq modulo the capacity: the head's slot indexes the
   retired-value ring. *)
let[@inline] retire_bookkeeping t e =
  let slot = t.head in
  t.retired_seq.(slot) <- e.seq;
  t.retired_val.(slot) <- e.value;
  if e.dest >= 0 then begin
    t.arf.(e.dest) <- e.value;
    if t.rat.(e.dest) = e.seq then t.rat.(e.dest) <- -1
  end;
  if e.is_load then t.lq_used <- t.lq_used - 1
  else if e.is_store then t.sq_used <- t.sq_used - 1;
  let h = t.head + 1 in
  t.head <- (if h >= cap t then 0 else h);
  t.count <- t.count - 1

let commit_step t =
  let budget = ref t.cfg.commit_width in
  let stop = ref false in
  while (not !stop) && !budget > 0 && t.count > 0 && t.run_outcome = None do
    let e = entry_at t 0 in
    if e.state <> Completed then stop := true
    else begin
      decr budget;
      (match e.fault with
      | Some msg -> t.run_outcome <- Some (Fault msg)
      | None -> ());
      if t.run_outcome = None then begin
        t.ctrs.committed <- t.ctrs.committed + 1;
        if e.kernel then
          t.ctrs.committed_kernel <- t.ctrs.committed_kernel + 1;
        (match t.hooks.on_commit with
        | Some f -> f e.e_fid e.e_idx e.insn
        | None -> ());
        (match e.insn with
        | Insn.Load _ ->
          t.ctrs.committed_loads <- t.ctrs.committed_loads + 1;
          if e.kernel then
            t.ctrs.committed_kernel_loads <- t.ctrs.committed_kernel_loads + 1
        | Insn.Store _ ->
          let key = Layout.phys_key ~asid:t.asid e.eff_addr in
          Mem.store t.mem key e.store_val;
          Memsys.data_write t.memsys key
        | Insn.Flush _ -> Memsys.flush_line t.memsys (Layout.phys_key ~asid:t.asid e.eff_addr)
        | Insn.Call _ ->
          t.commit_stack <- (e.va + Layout.insn_bytes) :: t.commit_stack;
          t.commit_depth <- t.commit_depth + 1
        | Insn.Icall _ ->
          (* Shadow-BTB commit: the predictor learns the indirect target only
             once the call is architecturally real. *)
          if t.guard.Guard.shadow_btb && e.actual_target_va >= 0 then
            Btb.update t.btb e.va e.actual_target_va;
          t.commit_stack <- (e.va + Layout.insn_bytes) :: t.commit_stack;
          t.commit_depth <- t.commit_depth + 1
        | Insn.Ret -> (
          match t.commit_stack with
          | [] -> t.run_outcome <- Some (Fault "ret with empty stack")
          | _ :: rest ->
            t.commit_stack <- rest;
            t.commit_depth <- t.commit_depth - 1)
        | Insn.Syscall -> (
          t.ctrs.syscalls <- t.ctrs.syscalls + 1;
          match t.hooks.on_syscall t.arf with
          | Iss.Stop -> t.run_outcome <- Some Halted
          | Iss.Skip ->
            fetch_at t e.e_fid (e.e_idx + 1);
            t.fetch_ready_at <- t.now + 1;
            t.last_fetch_line <- -1
          | Iss.Redirect (f, assigns) ->
            t.saved_user_regs <- Some (Array.copy t.arf);
            List.iter (fun (r, v) -> t.arf.(r) <- v) assigns;
            t.commit_stack <- (e.va + Layout.insn_bytes) :: t.commit_stack;
            t.commit_depth <- t.commit_depth + 1;
            t.dispatch_stack <- t.commit_stack;
            t.dispatch_depth <- t.commit_depth;
            t.kernel_mode <- true;
            fetch_at t f 0;
            t.fetch_ready_at <- t.now + t.cfg.kernel_entry_cycles;
            t.last_fetch_line <- -1)
        | Insn.Sysret -> (
          (match t.saved_user_regs with
          | Some saved ->
            Array.blit saved 0 t.arf 0 (Array.length saved);
            t.saved_user_regs <- None
          | None -> ());
          match t.hooks.on_sysret t.arf with
          | Iss.Stop -> t.run_outcome <- Some Halted
          | Iss.Skip | Iss.Redirect _ -> (
            match t.commit_stack with
            | [] -> t.run_outcome <- Some (Fault "sysret with empty stack")
            | rva :: rest ->
              t.commit_stack <- rest;
              t.commit_depth <- t.commit_depth - 1;
              t.dispatch_stack <- t.commit_stack;
              t.dispatch_depth <- t.commit_depth;
              (match Layout.decode_code_va rva with
              | Some (space, _, _) -> t.kernel_mode <- space = Layout.Kernel
              | None -> ());
              redirect_fetch t rva t.cfg.kernel_exit_cycles))
        | Insn.Halt -> t.run_outcome <- Some Halted
        | Insn.Nop | Insn.Limm _ | Insn.Alu _ | Insn.Alui _ | Insn.Branch _
        | Insn.Jump _ | Insn.Fence ->
          ());
        retire_bookkeeping t e
      end
    end
  done

(* ------------------------------------------------------------------ *)
(* Issue                                                                *)
(* ------------------------------------------------------------------ *)
(* Operand capture: whether producer [s] (in flight or retired) has its
   value, left in [t.captured]; an in-flight producer also passes on its
   active taint root. *)
let[@inline] capture t e s =
  let pos = pos_of_seq t s in
  if pos < 0 then begin
    (* [s mod cap t]: a producer renamed while its consumer was in flight is
       less than a capacity older than the head. *)
    let i = t.head + pos in
    let slot = if i >= 0 then i else i + cap t in
    t.retired_seq.(slot) = s
    && begin
         t.captured <- t.retired_val.(slot);
         true
       end
  end
  else begin
    let p = entry_at t pos in
    p.state = Completed
    && begin
         t.captured <- p.value;
         if root_active t p.taint_root then e.taint_root <- Int.max e.taint_root p.taint_root;
         true
       end
  end

(* Capture both operands, the first before the second; the common case (both
   already captured) is two int compares. *)
let[@inline] operands_ready t e =
  (e.src_seq0 < 0
  || capture t e e.src_seq0
     && begin
          e.src_val0 <- t.captured;
          e.src_seq0 <- -1;
          true
        end)
  && (e.src_seq1 < 0
     || capture t e e.src_seq1
        && begin
             e.src_val1 <- t.captured;
             e.src_seq1 <- -1;
             true
           end)

let count_fence t src =
  match src with
  | Guard.Isv -> t.ctrs.fences_isv <- t.ctrs.fences_isv + 1
  | Guard.Dsv -> t.ctrs.fences_dsv <- t.ctrs.fences_dsv + 1
  | Guard.Baseline -> t.ctrs.fences_baseline <- t.ctrs.fences_baseline + 1

(* Waiting -> Issued, finishing [lat] cycles from now: the entry leaves the
   issue pass and joins the completion set; a load also joins [vpp]. *)
let[@inline] issue t e slot lat =
  let d = t.now + lat in
  e.state <- Issued;
  Array.unsafe_set t.done_at slot d;
  if d < t.next_done_at then t.next_done_at <- d;
  bit_clear t.vis slot;
  bit_set t.iss slot;
  if e.is_load then bit_set t.vpp slot

let issue_load_to_memory t e slot ~speculative =
  let key = Layout.phys_key ~asid:t.asid e.eff_addr in
  let lat =
    match t.guard.Guard.spec_read with
    | Some f when speculative -> f ~key ~asid:t.asid
    | _ -> Memsys.data_read_lat t.memsys key
  in
  e.value <- Mem.load t.mem key;
  issue t e slot lat;
  if speculative then begin
    t.ctrs.spec_loads <- t.ctrs.spec_loads + 1;
    e.taint_root <- Int.max e.taint_root e.seq
  end

(* A blocked speculative load under a guard that holds its block to the
   Visibility Point waits on the oldest unresolved control, at position
   [first_unres]: the guard's answer can change only when the load stops
   being speculative, and only that control's completion can start that.
   Its completion wakes the load into the same cycle's pass.  There it
   waits on the next unresolved control if one is older, since the answer
   is known to be Block again and asking has no effect; otherwise it asks,
   as the seed model's re-query in that pass does. *)
let hold_to_vp t slot ~first_unres = wait_on t slot (slot_at t first_unres)

(* Ask the guard about a load whose address is known and that nothing
   forwards to: issue it to memory (true), or keep it blocked.  A blocked
   load stays in the pass and re-queries its guard on every pass (the
   goldens digest those queries), unless the guard holds its block to the
   Visibility Point. *)
let guard_load t e slot ~speculative ~first_unres =
  let query =
    {
      Guard.insn_va = e.va;
      fid = e.e_fid;
      addr = e.eff_addr;
      asid = t.asid;
      kernel_mode = t.kernel_mode;
      speculative;
      l1_hit = Memsys.would_hit_l1d t.memsys (Layout.phys_key ~asid:t.asid e.eff_addr);
      tainted = root_active t e.taint_root;
    }
  in
  match t.guard.Guard.check query with
  | Guard.Allow ->
    issue_load_to_memory t e slot ~speculative;
    true
  | Guard.Block src ->
    if Option.is_none e.blocked then begin
      e.blocked <- Some src;
      count_fence t src;
      record_event t (Ev_fence src) ~va:e.va ~seq:e.seq
    end;
    if speculative && t.guard.Guard.holds_to_vp then hold_to_vp t slot ~first_unres;
    false

(* Position of the youngest store older than [pos] that writes [word], or
   -1.  Only called when every older store's address is known. *)
let rec fwd_find t pos word q best =
  let q = next_pos t t.stq q in
  if q >= pos then best
  else
    fwd_find t pos word (q + 1) (if (entry_at t q).eff_addr lsr 3 = word then q else best)

(* Wait on the in-flight producer an operand capture short-circuited on. *)
let wait_dep t e slot =
  let s = if e.src_seq0 >= 0 then e.src_seq0 else e.src_seq1 in
  wait_on t slot (slot_at t (pos_of_seq t s))

(* Execute a non-load, non-fence instruction whose operands are captured;
   its latency. *)
let execute t e = function
  | Insn.Limm (_, v) ->
    e.value <- v;
    1
  | Insn.Alu (op, _, _, _) ->
    e.value <- Insn.eval_binop op e.src_val0 e.src_val1;
    1
  | Insn.Alui (op, _, _, v) ->
    e.value <- Insn.eval_binop op e.src_val0 v;
    1
  | Insn.Branch (c, _, _, tgt) ->
    e.actual_taken <- Insn.eval_cond c e.src_val0 e.src_val1;
    let next_idx = if e.actual_taken then tgt else e.e_idx + 1 in
    e.actual_target_va <- insn_va_of t e.e_fid next_idx;
    t.cfg.branch_latency
  | Insn.Icall _ ->
    let target = e.src_val0 in
    (match Layout.decode_code_va target with
    | Some (space, f, _) when f < Program.length t.prog && func_space t f = space ->
      e.actual_target_va <- target
    | Some _ | None -> e.fault <- Some (Printf.sprintf "icall to invalid VA %#x" target));
    t.cfg.branch_latency
  | Insn.Ret ->
    (if e.ret_target < 0 then e.fault <- Some "ret with empty stack"
     else e.actual_target_va <- e.ret_target);
    (* Returning reads the architectural stack: a flushed stack line delays
       resolution, widening the transient window (Spectre-RSB). *)
    Memsys.data_read_lat t.memsys (ret_stack_va ~asid:t.asid ~depth:e.ret_depth)
  | Insn.Flush (_, off) ->
    e.eff_addr <- e.src_val0 + off;
    e.addr_known <- true;
    1
  | Insn.Store (_, _, off) ->
    e.eff_addr <- e.src_val0 + off;
    e.store_val <- e.src_val1;
    e.addr_known <- true;
    1
  | Insn.Nop | Insn.Jump _ | Insn.Call _ | Insn.Syscall | Insn.Sysret | Insn.Halt
  | Insn.Fence | Insn.Load _ ->
    1

(* The walk's next position: the first of the next [vis] entry at or after
   [p] (while budget is left) and [next_vp], the next load short of its
   visibility point, if that is older than the oldest unresolved control. *)
let[@inline] next_visit t p ~vis ~next_vp ~first_unres =
  let v = if vis then next_pos t t.vis p else t.count in
  if next_vp < first_unres && next_vp < v then next_vp else v

(* The issue pass visits, in ROB order, only entries that can act; every
   other Waiting entry is on the wait list of the one entry whose change can
   unblock it (DESIGN.md §10).  The seed model's running prefix flags are
   first-member queries: the oldest unresolved control and the oldest
   incomplete fence cannot change during a pass, and [unk] is updated as
   stores issue, before any younger load is visited. *)
let issue_pass t ~first_vis ~first_vp =
  let first_unres = next_pos t t.unres 0 in
  let first_fence = next_pos t t.ifence 0 in
  let budget = ref t.cfg.issue_width in
  (* The walk merges two sets: Waiting entries in [vis] while budget is
     left, and loads short of their visibility point older than the oldest
     unresolved control.  A pass only changes [vpp] at the entry it visits,
     so the next [vpp] position is kept; [vis] gains bits ahead of the walk
     when a store's address becomes known, so it is searched afresh. *)
  let next_vp = ref first_vp in
  let p = ref (if first_vp < first_unres && first_vp < first_vis then first_vp else first_vis) in
  (* Once the budget is spent past an unresolved control, nothing younger
     can act: both issue paths are budget-gated and visibility points are
     disabled while speculative. *)
  while !p < t.count && not (!budget = 0 && !p > first_unres) do
    let pos = !p in
    let slot = slot_at t pos in
    let e = Array.unsafe_get t.rob slot in
    let speculative = pos > first_unres in
    (* Visibility point: no older instruction can squash this one. *)
    if e.is_load && (not e.vp_done) && e.state <> Waiting && not speculative
    then begin
      e.vp_done <- true;
      bit_clear t.vpp slot;
      (* Only architecturally-surviving loads reach here, so the dload trace
         is the sequential projection of the D-cache access stream. *)
      if t.trace_cap > 0 && e.addr_known then
        record_event t
          (Ev_dload (Layout.phys_key ~asid:t.asid e.eff_addr / Layout.line_bytes))
          ~va:e.va ~seq:e.seq;
      match t.guard.Guard.notify_vp with
      | Some f when e.addr_known ->
        f ~insn_va:e.va ~addr:e.eff_addr ~asid:t.asid ~kernel_mode:e.kernel
      | Some _ | None -> ()
    end;
    if e.state <> Waiting then bit_clear t.vis slot
    else if
      Option.is_some e.blocked && speculative && t.guard.Guard.holds_to_vp && !budget > 0
    then hold_to_vp t slot ~first_unres
    else if !budget > 0 && pos > first_fence then begin
      if Option.is_some e.blocked then begin
        if not speculative then begin
          (* A fenced load at its visibility point issues non-speculatively. *)
          decr budget;
          record_event t Ev_vp_release ~va:e.va ~seq:e.seq;
          issue_load_to_memory t e slot ~speculative:false
        end
      end
      else wait_on t slot (slot_at t first_fence)
    end
    else if !budget > 0 then begin
      (* Every attempt starts with operand capture (trivially true for an
         instruction without sources, and for a blocked load, whose operand
         is captured). *)
      if not (operands_ready t e) then wait_dep t e slot
      else
        match e.insn with
        | Insn.Fence ->
          let blocker = next_pos t t.inc 0 in
          if blocker < pos then wait_on t slot (slot_at t blocker)
          else begin
            decr budget;
            issue t e slot 1
          end
        | Insn.Load (_, _, off) ->
          (* A load the guard blocked goes straight back to it: its older
             stores, all with known addresses and no match for its word,
             can only retire. *)
          if Option.is_some e.blocked then begin
            if guard_load t e slot ~speculative ~first_unres then decr budget
          end
          else begin
            let unknown = next_pos t t.unk 0 in
            if unknown < pos then wait_on t slot (slot_at t unknown)
            else begin
              e.eff_addr <- e.src_val0 + off;
              e.addr_known <- true;
              let j = fwd_find t pos (e.eff_addr lsr 3) 0 (-1) in
              if j >= 0 then begin
                (* Store-to-load forwarding: no cache access. *)
                decr budget;
                e.value <- (entry_at t j).store_val;
                issue t e slot 1
              end
              else if guard_load t e slot ~speculative ~first_unres then decr budget
            end
          end
        | insn ->
          decr budget;
          issue t e slot (execute t e insn);
          if e.is_store then begin
            bit_clear t.unk slot;
            wake t slot
          end
    end;
    if !next_vp <= pos then next_vp := next_pos t t.vpp (pos + 1);
    p := next_visit t (pos + 1) ~vis:(!budget > 0) ~next_vp:!next_vp ~first_unres
  done

let issue_step t =
  let first_vis = next_pos t t.vis 0 and first_vp = next_pos t t.vpp 0 in
  if first_vis < t.count || first_vp < t.count then issue_pass t ~first_vis ~first_vp

(* ------------------------------------------------------------------ *)
(* Fetch / dispatch                                                     *)
(* ------------------------------------------------------------------ *)

(* Fetch on at a predicted target VA, or stall until [e] resolves when there
   is none (or it is not code); false when fetch stalled. *)
let follow t e = function
  | Some va -> (
    match Layout.decode_code_va va with
    | Some (_, f, i) ->
      e.pred_target_va <- va;
      fetch_at t f i;
      true
    | None ->
      stall_on t e;
      false)
  | None ->
    stall_on t e;
    false

let[@inline] lsq_full t = function
  | Insn.Load _ -> t.lq_used >= t.cfg.lq_entries
  | Insn.Store _ -> t.sq_used >= t.cfg.sq_entries
  | _ -> false

let fetch_step t =
  let budget = ref t.cfg.fetch_width in
  let continue_fetch = ref true in
  while
    !continue_fetch && !budget > 0 && t.count < cap t
    && t.fetch_ready_at <= t.now
  do
    match t.fetch with
    | Stopped | Stalled_ctrl | Stalled_serial -> continue_fetch := false
    | Fetching ->
      let fid = t.fetch_fid and idx = t.fetch_idx in
      let body = body_of t fid in
      if idx < 0 || idx >= Array.length body then begin
        (* Fell off the end of a function body: architectural fault if it
           commits; on a wrong path the squash will discard it. *)
        let kernel = func_space t fid = Layout.Kernel in
        let e = make_entry t fid idx ~va:(insn_va_of t fid idx) ~kernel Insn.Halt in
        e.fault <- Some (Printf.sprintf "fell off function f%d at %d" fid idx);
        issue t e (slot_at t (t.count - 1)) 1;
        t.fetch <- Stopped;
        continue_fetch := false
      end
      else begin
        let insn = Array.unsafe_get body idx in
        let space = func_space t fid in
        let va = Layout.insn_va space fid idx in
        let key = Layout.phys_key ~asid:t.asid va in
        let line = Layout.line_of key in
        if line <> t.last_fetch_line then begin
          let lat = Memsys.inst_read t.memsys key in
          t.last_fetch_line <- line;
          if lat > t.l1i_latency then begin
            t.fetch_ready_at <- t.now + lat;
            continue_fetch := false
          end
        end;
        if !continue_fetch then begin
          if lsq_full t insn then continue_fetch := false
          else begin
            decr budget;
            let e = make_entry t fid idx ~va ~kernel:(space = Layout.Kernel) insn in
            if e.is_ctrl then begin
              (* Squash snapshots, taken before this control updates them. *)
              e.ghr_snap <- t.ghr;
              e.stack_snap <- t.dispatch_stack;
              e.depth_snap <- t.dispatch_depth
            end;
            match insn with
            | Insn.Branch (_, _, _, tgt) ->
              let meta = Tage.predict t.tage ~pc:va ~hist:t.ghr in
              let pred = Tage.predicted meta in
              e.pred_taken <- pred;
              e.tage_meta <- meta;
              e.pred_target_va <- 0;
              t.ghr <- ((t.ghr lsl 1) lor if pred then 1 else 0) land max_int;
              fetch_at t fid (if pred then tgt else idx + 1)
            | Insn.Jump tgt -> fetch_at t fid tgt
            | Insn.Call callee ->
              Ras.push t.ras (va + Layout.insn_bytes);
              t.dispatch_stack <- (va + Layout.insn_bytes) :: t.dispatch_stack;
              t.dispatch_depth <- t.dispatch_depth + 1;
              fetch_at t callee 0
            | Insn.Icall _ -> (
              t.dispatch_stack <- (va + Layout.insn_bytes) :: t.dispatch_stack;
              t.dispatch_depth <- t.dispatch_depth + 1;
              if follow t e (if t.cfg.retpoline then None else Btb.lookup t.btb va) then
                Ras.push t.ras (va + Layout.insn_bytes)
              else continue_fetch := false)
            | Insn.Ret -> (
              e.ret_depth <- t.dispatch_depth;
              (match t.dispatch_stack with
              | [] -> e.ret_target <- -1
              | target :: rest ->
                e.ret_target <- target;
                t.dispatch_stack <- rest;
                t.dispatch_depth <- t.dispatch_depth - 1);
              if not (follow t e (Ras.pop t.ras)) then continue_fetch := false)
            | Insn.Syscall | Insn.Sysret | Insn.Halt ->
              t.fetch <- Stalled_serial;
              continue_fetch := false
            | Insn.Nop | Insn.Limm _ | Insn.Alu _ | Insn.Alui _ | Insn.Load _
            | Insn.Store _ | Insn.Fence | Insn.Flush _ ->
              fetch_at t fid (idx + 1)
          end
        end
      end
  done

(* ------------------------------------------------------------------ *)
(* Top-level run loop                                                   *)
(* ------------------------------------------------------------------ *)

let reset_run_state t ~asid ~start regs =
  (* Pool entries and slot sets need no clearing: [make_entry] reinitializes
     every field and bit of the slot it fills, and nothing reads outside the
     head/count window.  Wait lists are emptied: entries left in flight by the
     last run never completed. *)
  Array.fill t.retired_seq 0 (cap t) (-1);
  Array.blit regs 0 t.arf 0 Insn.num_regs;
  Array.fill t.rat 0 Insn.num_regs (-1);
  t.head <- 0;
  t.count <- 0;
  t.next_seq <- 0;
  t.ghr <- 0;
  fetch_at t start 0;
  t.fetch_ready_at <- 0;
  t.last_fetch_line <- -1;
  t.dispatch_stack <- [];
  t.dispatch_depth <- 0;
  t.commit_stack <- [];
  t.commit_depth <- 0;
  t.lq_used <- 0;
  t.sq_used <- 0;
  t.next_done_at <- max_int;
  Array.fill t.wl 0 (Array.length t.wl) 0;
  Array.fill t.wlw 0 (cap t) 0;
  t.asid <- asid;
  t.kernel_mode <- func_space t start = Layout.Kernel;
  t.run_outcome <- None

(* Charge [n] zero-commit cycles to one stall class by inspecting the ROB
   head, root cause first: an empty ROB is a fetch stall; a head load parked
   by the guard is a fence stall of that source; a head still executing is
   memory (loads/returns) or execution latency; otherwise back-pressure
   (ROB/LSQ full) and finally the residual [exec] class (e.g. operands in
   flight), so the classes always sum to [stall_total]. *)
let classify_stall t n =
  let c = t.ctrs in
  c.stall_total <- c.stall_total + n;
  if t.count = 0 then c.stall_fetch <- c.stall_fetch + n
  else begin
    let e = entry_at t 0 in
    match e.blocked with
    | Some src when e.state <> Completed -> (
      (* Still blocked at the guard (Waiting), or released at the
         visibility point and now waiting out memory latency the fence
         exposed by delaying the issue (Issued): either way the fence is
         what keeps the head from committing, so it gets the cycle. *)
      match src with
      | Guard.Isv -> c.stall_fence_isv <- c.stall_fence_isv + n
      | Guard.Dsv -> c.stall_fence_dsv <- c.stall_fence_dsv + n
      | Guard.Baseline -> c.stall_fence_baseline <- c.stall_fence_baseline + n)
    | Some _ | None ->
      if e.state = Issued then (
        match e.insn with
        | Insn.Load _ | Insn.Ret -> c.stall_dram <- c.stall_dram + n
        | _ -> c.stall_exec <- c.stall_exec + n)
      else if t.count = cap t then c.stall_rob_full <- c.stall_rob_full + n
      else if t.lq_used >= t.cfg.lq_entries || t.sq_used >= t.cfg.sq_entries then
        c.stall_lsq <- c.stall_lsq + n
      else c.stall_exec <- c.stall_exec + n
  end

(* The first cycle after [now] that may do anything; every cycle before it
   is idle.  A cycle is idle when no completion is due, the head cannot
   commit, the issue pass has nothing to visit, and fetch cannot proceed:
   it is stalled, not yet ready, or facing a full ROB. *)
let next_active_cycle t =
  let soon = t.now + 1 in
  if
    (t.count > 0 && (entry_at t 0).state = Completed)
    || next_pos t t.vis 0 < t.count
    || (let vp = next_pos t t.vpp 0 in
        vp < t.count && vp < next_pos t t.unres 0)
  then soon
  else
    let fetch_at =
      if t.fetch <> Fetching || t.count >= cap t then max_int
      else Int.max soon t.fetch_ready_at
    in
    Int.min t.next_done_at fetch_at

let run ?fuel ?regs ?(hooks = null_hooks) t ~asid ~start =
  let fuel = match fuel with Some f -> f | None -> t.cfg.max_cycles in
  let regs =
    match regs with Some r -> Array.copy r | None -> Array.make Insn.num_regs 0
  in
  reset_run_state t ~asid ~start regs;
  t.hooks <- hooks;
  let start_cycles = t.ctrs.cycles in
  let start_committed = t.ctrs.committed in
  let elapsed () = t.ctrs.cycles - start_cycles in
  while t.run_outcome = None && elapsed () < fuel do
    (* Idle cycles are skipped in one step, charged as the loop would
       charge them one by one, and never past the fuel. *)
    let idle = Int.min (next_active_cycle t - t.now - 1) (fuel - elapsed ()) in
    let n = if idle > 0 then idle else 1 in
    t.now <- t.now + n;
    t.ctrs.cycles <- t.ctrs.cycles + n;
    if t.kernel_mode then t.ctrs.kernel_cycles <- t.ctrs.kernel_cycles + n;
    if idle > 0 then classify_stall t n
    else begin
      completion_step t;
      let committed_before = t.ctrs.committed in
      commit_step t;
      if t.run_outcome = None then begin
        if t.ctrs.committed = committed_before then classify_stall t 1;
        issue_step t;
        fetch_step t
      end
    end
  done;
  let outcome = match t.run_outcome with Some o -> o | None -> Out_of_fuel in
  {
    outcome;
    cycles = elapsed ();
    committed = t.ctrs.committed - start_committed;
    regs = Array.copy t.arf;
  }
