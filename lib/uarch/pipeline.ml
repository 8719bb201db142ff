module Insn = Pv_isa.Insn
module Layout = Pv_isa.Layout
module Program = Pv_isa.Program
module Mem = Pv_isa.Mem
module Iss = Pv_isa.Iss

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
   bools; only the squash snapshots ([stack_snap], [tage_meta]), the guard's
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
  (* Instruction class, fixed at dispatch: the per-entry scans test these
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
  mutable done_at : int;
  mutable value : int;
  mutable eff_addr : int;
  mutable store_val : int;
  mutable pred_target_va : int; (* -1 when fetch stalled on this entry *)
  mutable actual_target_va : int;
  mutable tage_meta : Tage.meta option;
  mutable ghr_snap : int;
  mutable stack_snap : int list;
  mutable depth_snap : int;
  mutable ret_target : int;
  mutable ret_depth : int;
  mutable taint_root : int;
  (* Producer parking: the seq of the in-flight entry the last dispatch
     attempt waited on — the operand producer its capture short-circuited
     on, or a fence's oldest incomplete older entry (-1 = none).  The attempt
     is skipped with a single state test until that entry completes or
     retires: a failed attempt has no side effects, and its outcome cannot
     change before then. *)
  mutable park_seq : int;
  mutable fault : string option;
}

type fetch_state =
  | Fetching of int * int
  | Stalled_ctrl of int (* seq *)
  | Stalled_serial
  | Stopped

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
  (* store-to-load forwarding scratch, rebuilt by each issue pass: word
     addresses and values of older address-known stores, oldest first (so a
     backward scan finds the youngest match).  Bounded by [sq_entries]. *)
  fwd_word : int array;
  fwd_val : int array;
  mutable fwd_len : int;
  mutable head : int;
  mutable count : int;
  mutable next_seq : int;
  mutable ghr : int;
  mutable fetch : fetch_state;
  mutable fetch_ready_at : int;
  mutable last_fetch_line : int;
  mutable dispatch_stack : int list;
  mutable dispatch_depth : int;
  mutable commit_stack : int list;
  mutable commit_depth : int;
  mutable lq_used : int;
  mutable sq_used : int;
  (* Lower bound on the earliest [done_at] of any Issued entry: the
     completion scan runs only when a completion can actually be due, so a
     long-latency stall (DRAM, fence) costs no per-cycle ROB walks. *)
  mutable next_done_at : int;
  (* The settle rule (see the end of [issue_step]): set by an issue pass
     after which the next pass is provably a no-op, cleared by [make_entry]
     and by every completion.  While it is set the issue pass is skipped. *)
  mutable settled : bool;
  (* Actionable list: seqs (strictly increasing) of the entries the issue
     scan still needs to visit — Waiting entries, in-flight stores (they
     feed store-to-load forwarding until retirement), unresolved controls,
     incomplete fences and loads short of their visibility point.  Entries
     are appended at dispatch and dropped lazily once no future visit can
     matter, so the scan walks this list instead of the whole ROB. *)
  act : int array;
  mutable act_len : int;
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
    done_at = 0;
    value = 0;
    eff_addr = 0;
    store_val = 0;
    pred_target_va = -1;
    actual_target_va = -1;
    tage_meta = None;
    ghr_snap = 0;
    stack_snap = [];
    depth_snap = 0;
    ret_target = -1;
    ret_depth = 0;
    taint_root = -1;
    park_seq = -1;
    fault = None;
  }

let create ?(config = default_config) memsys prog =
  let cap = config.rob_entries in
  {
    cfg = config;
    memsys;
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
    fwd_word = Array.make (max 1 config.sq_entries) 0;
    fwd_val = Array.make (max 1 config.sq_entries) 0;
    fwd_len = 0;
    head = 0;
    count = 0;
    next_seq = 0;
    ghr = 0;
    fetch = Stopped;
    fetch_ready_at = 0;
    last_fetch_line = -1;
    dispatch_stack = [];
    dispatch_depth = 0;
    commit_stack = [];
    commit_depth = 0;
    lq_used = 0;
    sq_used = 0;
    next_done_at = max_int;
    settled = false;
    act = Array.make (2 * cap) 0;
    act_len = 0;
    now = 0;
    asid = 0;
    kernel_mode = false;
    run_outcome = None;
    saved_user_regs = None;
    hooks = null_hooks;
    trace_cap = (if config.trace_events then max 0 config.trace_capacity else 0);
    trace_buf = [||];
    trace_count = 0;
  }

let config t = t.cfg
let memsys t = t.memsys
let btb t = t.btb
let ras t = t.ras
let counters t = t.ctrs
let set_guard t g = t.guard <- g
let guard t = t.guard

(* Until the ring first fills, [trace_count] is below the buffer's length
   and events sit at their own index; growing copies that prefix, so the
   wrap-around below starts only once the buffer has [trace_cap] slots. *)
let record_event t kind ~va ~seq =
  if t.trace_cap > 0 then begin
    let n = Array.length t.trace_buf in
    if t.trace_count = n && n < t.trace_cap then begin
      let grown = Array.make (min t.trace_cap (max 16 (2 * n))) dummy_event in
      Array.blit t.trace_buf 0 grown 0 n;
      t.trace_buf <- grown
    end;
    t.trace_buf.(t.trace_count mod Array.length t.trace_buf) <-
      { ev_cycle = t.now; ev_kind = kind; ev_va = va; ev_seq = seq };
    t.trace_count <- t.trace_count + 1
  end

let events t =
  let n = Array.length t.trace_buf in
  if n = 0 then []
  else begin
    let len = min t.trace_count n in
    let start = t.trace_count - len in
    List.init len (fun i -> t.trace_buf.((start + i) mod n))
  end

let source_name = function
  | Guard.Isv -> "isv"
  | Guard.Dsv -> "dsv"
  | Guard.Baseline -> "baseline"

let event_to_json ev =
  match ev.ev_kind with
  | Ev_squash ->
    Printf.sprintf {|{"cycle":%d,"kind":"squash","va":%d,"seq":%d}|} ev.ev_cycle
      ev.ev_va ev.ev_seq
  | Ev_fence src ->
    Printf.sprintf {|{"cycle":%d,"kind":"fence","source":"%s","va":%d,"seq":%d}|}
      ev.ev_cycle (source_name src) ev.ev_va ev.ev_seq
  | Ev_vp_release ->
    Printf.sprintf {|{"cycle":%d,"kind":"vp_release","va":%d,"seq":%d}|} ev.ev_cycle
      ev.ev_va ev.ev_seq
  | Ev_dload line ->
    Printf.sprintf {|{"cycle":%d,"kind":"dload","line":%d,"va":%d,"seq":%d}|}
      ev.ev_cycle line ev.ev_va ev.ev_seq

let ret_stack_base = 0x5F00_0000_0000

let ret_stack_va ~asid ~depth = ret_stack_base + (asid lsl 24) + (depth * 8)

let cap t = Array.length t.rob

let head_seq t = t.next_seq - t.count

let pos_of_seq t s = s - head_seq t

(* [pos] is always within the live window, and head + pos < 2*capacity, so
   the ring wrap is a compare-and-subtract rather than a division. *)
let entry_at t pos =
  let c = Array.length t.rob in
  let i = t.head + pos in
  Array.unsafe_get t.rob (if i >= c then i - c else i)

let func_space t fid = (Program.func t.prog fid).Program.space

let is_kernel_fid t fid = func_space t fid = Layout.Kernel

let insn_va_of t fid idx = Layout.insn_va (func_space t fid) fid idx

(* A taint root is an in-flight speculative load that has not yet reached its
   Visibility Point. *)
let root_active t root =
  if root < 0 then false
  else
    let pos = pos_of_seq t root in
    if pos < 0 || pos >= t.count then false
    else
      let e = entry_at t pos in
      e.seq = root && not e.vp_done

(* Whether an entry still needs issue-scan visits.  False is final: an
   issued non-load (other than stores, unresolved controls and incomplete
   fences) and a load past its visibility point can never matter to a later
   pass, so it can leave the actionable list for good. *)
let act_keep e =
  e.state = Waiting
  || (e.is_load && not e.vp_done)
  || e.is_store
  || (e.is_ctrl && not e.resolved)
  || (e.is_fence && e.state <> Completed)

(* Squeeze retired and drop-safe seqs out of the actionable list; called when
   an append finds the array full (the live subset always fits). *)
let compact_act t =
  let out = ref 0 in
  for k = 0 to t.act_len - 1 do
    let seq = t.act.(k) in
    let pos = pos_of_seq t seq in
    if pos >= 0 && pos < t.count && act_keep (entry_at t pos) then begin
      t.act.(!out) <- seq;
      incr out
    end
  done;
  t.act_len <- !out

let src_info insn =
  (* (dest, src0, src1) register indices, -1 when absent. *)
  match insn with
  | Insn.Nop | Insn.Fence | Insn.Syscall | Insn.Sysret | Insn.Halt | Insn.Ret
  | Insn.Jump _ | Insn.Call _ ->
    (-1, -1, -1)
  | Insn.Limm (rd, _) -> (rd, -1, -1)
  | Insn.Alu (_, rd, r1, r2) -> (rd, r1, r2)
  | Insn.Alui (_, rd, r1, _) -> (rd, r1, -1)
  | Insn.Load (rd, ra, _) -> (rd, ra, -1)
  | Insn.Store (ra, rv, _) -> (-1, ra, rv)
  | Insn.Branch (_, r1, r2, _) -> (-1, r1, r2)
  | Insn.Icall r -> (-1, r, -1)
  | Insn.Flush (ra, _) -> (-1, ra, -1)

(* Reinitialize the pool entry at the ROB tail — the allocation-free
   equivalent of the seed model's fresh record per fetched instruction.
   [va] is the already-computed VA of (fid, idx). *)
let make_entry t fid idx ~va insn =
  let dest, s0, s1 = src_info insn in
  let e = entry_at t t.count in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  e.seq <- seq;
  e.e_fid <- fid;
  e.e_idx <- idx;
  e.va <- va;
  e.insn <- insn;
  e.dest <- dest;
  (if s0 >= 0 then begin
     let p = t.rat.(s0) in
     if p >= 0 then begin
       e.src_seq0 <- p;
       e.src_val0 <- 0
     end
     else begin
       e.src_seq0 <- -1;
       e.src_val0 <- t.arf.(s0)
     end
   end
   else begin
     e.src_seq0 <- -1;
     e.src_val0 <- 0
   end);
  (if s1 >= 0 then begin
     let p = t.rat.(s1) in
     if p >= 0 then begin
       e.src_seq1 <- p;
       e.src_val1 <- 0
     end
     else begin
       e.src_seq1 <- -1;
       e.src_val1 <- t.arf.(s1)
     end
   end
   else begin
     e.src_seq1 <- -1;
     e.src_val1 <- 0
   end);
  e.state <- Waiting;
  e.is_ctrl <-
    (match insn with Insn.Branch _ | Insn.Icall _ | Insn.Ret -> true | _ -> false);
  e.is_load <- Insn.is_load insn;
  e.is_store <- Insn.is_store insn;
  e.is_fence <- (match insn with Insn.Fence -> true | _ -> false);
  e.kernel <- is_kernel_fid t fid;
  e.pred_taken <- false;
  e.actual_taken <- false;
  e.resolved <- false;
  e.vp_done <- false;
  e.addr_known <- false;
  e.blocked <- None;
  e.done_at <- 0;
  e.value <- 0;
  e.eff_addr <- 0;
  e.store_val <- 0;
  e.pred_target_va <- -1;
  e.actual_target_va <- -1;
  e.tage_meta <- None;
  e.ghr_snap <- 0;
  e.stack_snap <- [];
  e.depth_snap <- 0;
  e.ret_target <- -1;
  e.ret_depth <- 0;
  e.taint_root <- -1;
  e.park_seq <- -1;
  e.fault <- None;
  if dest >= 0 then t.rat.(dest) <- seq;
  t.count <- t.count + 1;
  t.settled <- false;
  if t.act_len >= Array.length t.act then compact_act t;
  t.act.(t.act_len) <- seq;
  t.act_len <- t.act_len + 1;
  (match insn with
  | Insn.Load _ -> t.lq_used <- t.lq_used + 1
  | Insn.Store _ -> t.sq_used <- t.sq_used + 1
  | _ -> ());
  e

let rebuild_rat t =
  Array.fill t.rat 0 (Array.length t.rat) (-1);
  for i = 0 to t.count - 1 do
    let e = entry_at t i in
    if e.dest >= 0 then t.rat.(e.dest) <- e.seq
  done

(* Remove all entries younger than position [pos] (exclusive). *)
let truncate_rob t pos =
  for i = pos + 1 to t.count - 1 do
    match (entry_at t i).insn with
    | Insn.Load _ -> t.lq_used <- t.lq_used - 1
    | Insn.Store _ -> t.sq_used <- t.sq_used - 1
    | _ -> ()
  done;
  let removed = t.count - pos - 1 in
  t.count <- pos + 1;
  t.next_seq <- t.next_seq - removed;
  (* Squashed seqs are a suffix of the (sorted) actionable list. *)
  while t.act_len > 0 && t.act.(t.act_len - 1) >= t.next_seq do
    t.act_len <- t.act_len - 1
  done;
  rebuild_rat t

let redirect_fetch t va delay =
  (match Layout.decode_code_va va with
  | Some (_, fid, idx) -> t.fetch <- Fetching (fid, idx)
  | None -> t.fetch <- Stopped);
  t.fetch_ready_at <- t.now + delay;
  t.last_fetch_line <- -1

(* Resolution of a completed control-flow instruction at ROB position [pos].
   Returns true if younger entries were squashed. *)
let resolve_ctrl t pos e =
  e.resolved <- true;
  let squash target_va restore_stack restore_depth restore_ghr =
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
  in
  match e.insn with
  | Insn.Branch _ ->
    (match e.tage_meta with
    | Some meta ->
      Tage.update t.tage ~pc:e.va ~hist:e.ghr_snap meta
        ~taken:e.actual_taken
    | None -> ());
    if e.actual_taken <> e.pred_taken then begin
      t.ctrs.branch_mispredicts <- t.ctrs.branch_mispredicts + 1;
      let ghr' =
        (e.ghr_snap lsl 1) lor (if e.actual_taken then 1 else 0)
      in
      squash e.actual_target_va e.stack_snap e.depth_snap ghr';
      true
    end
    else false
  | Insn.Icall _ ->
    (* Shadow-BTB schemes defer BTB training to commit: a squashed (transient)
       indirect call must leave no predictor state behind. *)
    if e.actual_target_va >= 0 && not t.guard.Guard.shadow_btb then
      Btb.update t.btb e.va e.actual_target_va;
    let stack' = (e.va + Layout.insn_bytes) :: e.stack_snap in
    let depth' = e.depth_snap + 1 in
    if e.pred_target_va = -1 then begin
      (* Fetch was stalled on this instruction: resume, no squash. *)
      (match t.fetch with
      | Stalled_ctrl s when s = e.seq ->
        if e.fault <> None then t.fetch <- Stopped
        else begin
          Ras.push t.ras (e.va + Layout.insn_bytes);
          (* A retpolined indirect call pays for the capture sequence. *)
          redirect_fetch t e.actual_target_va (if t.cfg.retpoline then 24 else 1)
        end
      | Fetching _ | Stalled_ctrl _ | Stalled_serial | Stopped -> ());
      false
    end
    else if e.fault <> None then begin
      squash (-1) stack' depth' t.ghr;
      true
    end
    else if e.actual_target_va <> e.pred_target_va then begin
      t.ctrs.branch_mispredicts <- t.ctrs.branch_mispredicts + 1;
      squash e.actual_target_va stack' depth' t.ghr;
      true
    end
    else false
  | Insn.Ret ->
    let stack' = match e.stack_snap with [] -> [] | _ :: rest -> rest in
    let depth' = max 0 (e.depth_snap - 1) in
    if e.pred_target_va = -1 then begin
      (match t.fetch with
      | Stalled_ctrl s when s = e.seq ->
        if e.fault <> None then t.fetch <- Stopped
        else redirect_fetch t e.actual_target_va 1
      | Fetching _ | Stalled_ctrl _ | Stalled_serial | Stopped -> ());
      false
    end
    else if e.fault <> None then begin
      squash (-1) stack' depth' t.ghr;
      true
    end
    else if e.actual_target_va <> e.pred_target_va then begin
      t.ctrs.branch_mispredicts <- t.ctrs.branch_mispredicts + 1;
      squash e.actual_target_va stack' depth' t.ghr;
      true
    end
    else false
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Completion: turn finished executions into Completed entries and resolve
   control flow, oldest first.                                          *)
(* ------------------------------------------------------------------ *)

(* No-op unless a completion can be due ([next_done_at] is a sound lower
   bound: every issue site raises awareness via the end of [issue_step], and
   entry removal only ever raises the true minimum).  When the scan does
   run it recomputes the exact bound over the surviving entries — a squash
   only removes entries younger than the stop position, so every survivor
   was visited. *)
let completion_step t =
  if t.now >= t.next_done_at then begin
    let nxt = ref max_int in
    let i = ref 0 in
    let stop = ref false in
    while (not !stop) && !i < t.count do
      let e = entry_at t !i in
      if e.state = Issued then begin
        if e.done_at <= t.now then begin
          e.state <- Completed;
          t.settled <- false;
          if e.is_ctrl then if resolve_ctrl t !i e then stop := true
        end
        else if e.done_at < !nxt then nxt := e.done_at
      end;
      incr i
    done;
    t.next_done_at <- !nxt
  end

(* ------------------------------------------------------------------ *)
(* Commit                                                               *)
(* ------------------------------------------------------------------ *)

let retire_bookkeeping t e =
  let slot = e.seq mod cap t in
  t.retired_seq.(slot) <- e.seq;
  t.retired_val.(slot) <- e.value;
  if e.dest >= 0 then begin
    t.arf.(e.dest) <- e.value;
    if t.rat.(e.dest) = e.seq then t.rat.(e.dest) <- -1
  end;
  (match e.insn with
  | Insn.Load _ -> t.lq_used <- t.lq_used - 1
  | Insn.Store _ -> t.sq_used <- t.sq_used - 1
  | _ -> ());
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
          Mem.store (Memsys.mem t.memsys) key e.store_val;
          Memsys.data_write t.memsys key
        | Insn.Flush _ ->
          Memsys.flush_line t.memsys (Layout.phys_key ~asid:t.asid e.eff_addr)
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
            t.fetch <- Fetching (e.e_fid, e.e_idx + 1);
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
            t.fetch <- Fetching (f, 0);
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

(* Operand capture, one specialized copy per source slot so the common case
   (value already captured) is a single int compare. *)
let capture_operand0 t e =
  let s = e.src_seq0 in
  if s < 0 then true
  else
    let pos = pos_of_seq t s in
    if pos < 0 then begin
      let slot = s mod cap t in
      if t.retired_seq.(slot) = s then begin
        e.src_val0 <- t.retired_val.(slot);
        e.src_seq0 <- -1;
        true
      end
      else false
    end
    else
      let p = entry_at t pos in
      if p.state = Completed then begin
        e.src_val0 <- p.value;
        e.src_seq0 <- -1;
        if root_active t p.taint_root then
          e.taint_root <- max e.taint_root p.taint_root;
        true
      end
      else false

let capture_operand1 t e =
  let s = e.src_seq1 in
  if s < 0 then true
  else
    let pos = pos_of_seq t s in
    if pos < 0 then begin
      let slot = s mod cap t in
      if t.retired_seq.(slot) = s then begin
        e.src_val1 <- t.retired_val.(slot);
        e.src_seq1 <- -1;
        true
      end
      else false
    end
    else
      let p = entry_at t pos in
      if p.state = Completed then begin
        e.src_val1 <- p.value;
        e.src_seq1 <- -1;
        if root_active t p.taint_root then
          e.taint_root <- max e.taint_root p.taint_root;
        true
      end
      else false

let operands_ready t e = capture_operand0 t e && capture_operand1 t e

let count_fence t src =
  match src with
  | Guard.Isv -> t.ctrs.fences_isv <- t.ctrs.fences_isv + 1
  | Guard.Dsv -> t.ctrs.fences_dsv <- t.ctrs.fences_dsv + 1
  | Guard.Baseline -> t.ctrs.fences_baseline <- t.ctrs.fences_baseline + 1

let issue_load_to_memory t e ~speculative =
  let key = Layout.phys_key ~asid:t.asid e.eff_addr in
  let lat =
    match t.guard.Guard.spec_read with
    | Some f when speculative -> f ~key ~asid:t.asid
    | _ -> Memsys.data_read_lat t.memsys key
  in
  e.value <- Mem.load (Memsys.mem t.memsys) key;
  e.done_at <- t.now + lat;
  e.state <- Issued;
  if speculative then begin
    t.ctrs.spec_loads <- t.ctrs.spec_loads + 1;
    e.taint_root <- max e.taint_root e.seq
  end

(* Youngest older store to [word], or -1: the scratch arrays are filled in
   scan order (oldest first), so the backward scan matches the head-first
   lookup of an assoc list consed youngest-first. *)
let fwd_find t word =
  let rec go j =
    if j < 0 then -1
    else if Array.unsafe_get t.fwd_word j = word then j
    else go (j - 1)
  in
  go (t.fwd_len - 1)

let fwd_push t word v =
  t.fwd_word.(t.fwd_len) <- word;
  t.fwd_val.(t.fwd_len) <- v;
  t.fwd_len <- t.fwd_len + 1

(* Park an entry whose operand capture failed on the producer it
   short-circuited on. *)
let park_dep e =
  e.park_seq <- (if e.src_seq0 >= 0 then e.src_seq0 else e.src_seq1)

(* Seq of the oldest entry older than position [pos] that has not
   completed, or -1 when all have: a fence at [pos] issues only then, and
   otherwise parks on the entry found. *)
let oldest_incomplete t pos =
  let rec go k =
    if k >= pos then -1
    else
      let p = entry_at t k in
      if p.state <> Completed then p.seq else go (k + 1)
  in
  go 0

let issue_step t =
  if not t.settled then begin
  let budget = ref t.cfg.issue_width in
  (* Cleared by a guard [Block] and by a non-speculative load issue: the two
     things besides a completion that make the next pass act (see the settle
     rule at the end). *)
  let quiet = ref true in
  let older_unresolved_ctrl = ref false in
  let older_fence_incomplete = ref false in
  let older_store_unknown = ref false in
  t.fwd_len <- 0;
  let k = ref 0 in
  let out = ref 0 in
  (* Walk the actionable list (ascending seq = ROB order), compacting it in
     place.  The running prefix flags stay exact because every entry that
     can contribute to them is kept on the list.  Once the issue budget is
     spent AND an older control is unresolved, the rest of the scan is
     provably a no-op: both issue branches are budget-gated, visibility
     points are disabled while speculative, and the running flags only feed
     those disabled paths — so stop walking. *)
  while !k < t.act_len && not (!budget = 0 && !older_unresolved_ctrl) do
    let seq = Array.unsafe_get t.act !k in
    let pos = pos_of_seq t seq in
    (* A negative position is a retired store still on the list: drop it. *)
    if pos >= 0 then begin
    let e = entry_at t pos in
    let speculative = !older_unresolved_ctrl in
    (* Visibility point: no older instruction can squash this one. *)
    if e.is_load && (not e.vp_done) && e.state <> Waiting && not speculative
    then begin
      e.vp_done <- true;
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
    if e.state = Waiting && !budget > 0 && not !older_fence_incomplete then begin
      let parked =
        if e.park_seq >= 0 then begin
          let pos = pos_of_seq t e.park_seq in
          if pos >= 0 && (entry_at t pos).state <> Completed then true
          else begin
            e.park_seq <- -1;
            false
          end
        end
        else false
      in
      if not parked then begin
      match e.insn with
      | Insn.Nop | Insn.Jump _ | Insn.Call _ | Insn.Syscall | Insn.Sysret
      | Insn.Halt ->
        decr budget;
        e.state <- Issued;
        e.done_at <- t.now + 1
      | Insn.Fence ->
        let blocker = oldest_incomplete t pos in
        if blocker < 0 then begin
          decr budget;
          e.state <- Issued;
          e.done_at <- t.now + 1
        end
        else e.park_seq <- blocker
      | Insn.Limm (_, v) ->
        decr budget;
        e.value <- v;
        e.state <- Issued;
        e.done_at <- t.now + 1
      | Insn.Alu (op, _, _, _) ->
        if operands_ready t e then begin
          decr budget;
          e.value <- Insn.eval_binop op e.src_val0 e.src_val1;
          e.state <- Issued;
          e.done_at <- t.now + 1
        end
        else park_dep e
      | Insn.Alui (op, _, _, v) ->
        if operands_ready t e then begin
          decr budget;
          e.value <- Insn.eval_binop op e.src_val0 v;
          e.state <- Issued;
          e.done_at <- t.now + 1
        end
        else park_dep e
      | Insn.Branch (c, _, _, tgt) ->
        if operands_ready t e then begin
          decr budget;
          e.actual_taken <- Insn.eval_cond c e.src_val0 e.src_val1;
          let next_idx = if e.actual_taken then tgt else e.e_idx + 1 in
          e.actual_target_va <- insn_va_of t e.e_fid next_idx;
          e.state <- Issued;
          e.done_at <- t.now + t.cfg.branch_latency
        end
        else park_dep e
      | Insn.Icall _ ->
        if operands_ready t e then begin
          decr budget;
          let target = e.src_val0 in
          (match Layout.decode_code_va target with
          | Some (space, f, _)
            when f < Program.length t.prog && func_space t f = space ->
            e.actual_target_va <- target
          | Some _ | None ->
            e.fault <- Some (Printf.sprintf "icall to invalid VA %#x" target));
          e.state <- Issued;
          e.done_at <- t.now + t.cfg.branch_latency
        end
        else park_dep e
      | Insn.Ret ->
        decr budget;
        (if e.ret_target < 0 then e.fault <- Some "ret with empty stack"
         else e.actual_target_va <- e.ret_target);
        (* Returning reads the architectural stack: a flushed stack line
           delays resolution, widening the transient window (Spectre-RSB). *)
        let key = ret_stack_va ~asid:t.asid ~depth:e.ret_depth in
        let lat = Memsys.data_read_lat t.memsys key in
        e.state <- Issued;
        e.done_at <- t.now + lat
      | Insn.Flush (_, off) ->
        if operands_ready t e then begin
          decr budget;
          e.eff_addr <- e.src_val0 + off;
          e.addr_known <- true;
          e.state <- Issued;
          e.done_at <- t.now + 1
        end
        else park_dep e
      | Insn.Store (_, _, off) ->
        if operands_ready t e then begin
          decr budget;
          e.eff_addr <- e.src_val0 + off;
          e.store_val <- e.src_val1;
          e.addr_known <- true;
          e.state <- Issued;
          e.done_at <- t.now + 1
        end
        else park_dep e
      | Insn.Load (_, _, off) ->
        (* Behind an older store with an unknown address the load waits
           unparked: that store issues earlier in some later walk, and
           retrying until then costs two int compares. *)
        if not (operands_ready t e) then park_dep e
        else if not !older_store_unknown then begin
          e.eff_addr <- e.src_val0 + off;
          e.addr_known <- true;
          let word = e.eff_addr lsr 3 in
          let j = fwd_find t word in
          if j >= 0 then begin
            (* Store-to-load forwarding: no cache access. *)
            decr budget;
            if not speculative then quiet := false;
            e.value <- Array.unsafe_get t.fwd_val j;
            e.state <- Issued;
            e.done_at <- t.now + 1
          end
          else begin
            let query =
              {
                Guard.insn_va = e.va;
                fid = e.e_fid;
                addr = e.eff_addr;
                asid = t.asid;
                kernel_mode = t.kernel_mode;
                speculative;
                l1_hit =
                  Memsys.would_hit_l1d t.memsys
                    (Layout.phys_key ~asid:t.asid e.eff_addr);
                tainted = root_active t e.taint_root;
              }
            in
            match t.guard.Guard.check query with
            | Guard.Allow ->
              decr budget;
              if not speculative then quiet := false;
              issue_load_to_memory t e ~speculative
            | Guard.Block src ->
              quiet := false;
              if Option.is_none e.blocked then begin
                e.blocked <- Some src;
                count_fence t src;
                record_event t (Ev_fence src) ~va:e.va ~seq:e.seq
              end
          end
        end
      end
    end
    else if
      e.state = Waiting && !budget > 0 && Option.is_some e.blocked && not speculative
    then begin
      (* A fenced load at its visibility point issues non-speculatively. *)
      decr budget;
      quiet := false;
      record_event t Ev_vp_release ~va:e.va ~seq:e.seq;
      issue_load_to_memory t e ~speculative:false
    end;
    (* Update running flags with this entry included. *)
    if e.is_ctrl && not e.resolved then older_unresolved_ctrl := true;
    (if e.is_fence then begin
       if e.state <> Completed then older_fence_incomplete := true
     end
     else if e.is_store then
       if e.addr_known then fwd_push t (e.eff_addr lsr 3) e.store_val
       else older_store_unknown := true);
    if act_keep e then begin
      Array.unsafe_set t.act !out seq;
      incr out
    end
    end;
    incr k
  done;
  (* On an early exit the unprocessed tail is kept verbatim. *)
  while !k < t.act_len do
    Array.unsafe_set t.act !out (Array.unsafe_get t.act !k);
    incr out;
    incr k
  done;
  t.act_len <- !out;
  (* Anything issued this pass finishes no earlier than the next cycle; the
     next completion scan recomputes the exact bound. *)
  if !budget < t.cfg.issue_width && t.now + 1 < t.next_done_at then
    t.next_done_at <- t.now + 1;
  (* The settle rule.  With budget left the walk visited every Waiting
     entry, and each one either issued or waits on something only a
     completion can change: an incomplete producer or fence blocker, an
     older store with an unknown address (a store's address becomes known
     when it issues, earlier in the same walk as any younger load), an older
     incomplete fence or an older unresolved control.  A [Block] forces
     another pass, because a blocked load re-queries its guard on every pass
     and those queries move the view-cache statistics the goldens digest.
     So does a non-speculative load issue: that load reaches its Visibility
     Point ([notify_vp], [Ev_dload]) on the next pass.  Otherwise the next
     pass would change nothing, and neither would any pass after it until
     [make_entry] or a completion clears the flag. *)
  t.settled <- !budget > 0 && !quiet
  end

(* ------------------------------------------------------------------ *)
(* Fetch / dispatch                                                     *)
(* ------------------------------------------------------------------ *)

let fetch_step t =
  let budget = ref t.cfg.fetch_width in
  let continue_fetch = ref true in
  while
    !continue_fetch && !budget > 0 && t.count < cap t
    && t.fetch_ready_at <= t.now
  do
    match t.fetch with
    | Stopped | Stalled_ctrl _ | Stalled_serial -> continue_fetch := false
    | Fetching (fid, idx) -> (
      match Program.fetch t.prog fid idx with
      | None ->
        (* Fell off the end of a function body: architectural fault if it
           commits; on a wrong path the squash will discard it. *)
        let e = make_entry t fid idx ~va:(insn_va_of t fid idx) Insn.Halt in
        e.fault <- Some (Printf.sprintf "fell off function f%d at %d" fid idx);
        e.state <- Issued;
        e.done_at <- t.now + 1;
        if t.now + 1 < t.next_done_at then t.next_done_at <- t.now + 1;
        t.fetch <- Stopped;
        continue_fetch := false
      | Some insn ->
        let va = insn_va_of t fid idx in
        let line = Layout.line_of (Layout.phys_key ~asid:t.asid va) in
        if line <> t.last_fetch_line then begin
          let lat = Memsys.inst_read t.memsys (Layout.phys_key ~asid:t.asid va) in
          t.last_fetch_line <- line;
          if lat > Cache.latency (Memsys.l1i t.memsys) then begin
            t.fetch_ready_at <- t.now + lat;
            continue_fetch := false
          end
        end;
        if !continue_fetch then begin
          let lq_full = Insn.is_load insn && t.lq_used >= t.cfg.lq_entries in
          let sq_full = Insn.is_store insn && t.sq_used >= t.cfg.sq_entries in
          if lq_full || sq_full then continue_fetch := false
          else begin
            decr budget;
            let e = make_entry t fid idx ~va insn in
            match insn with
            | Insn.Branch (_, _, _, tgt) ->
              let pred, meta = Tage.predict t.tage ~pc:va ~hist:t.ghr in
              e.pred_taken <- pred;
              e.tage_meta <- Some meta;
              e.ghr_snap <- t.ghr;
              e.stack_snap <- t.dispatch_stack;
              e.depth_snap <- t.dispatch_depth;
              e.pred_target_va <- 0;
              t.ghr <- ((t.ghr lsl 1) lor if pred then 1 else 0) land max_int;
              t.fetch <- Fetching (fid, if pred then tgt else idx + 1)
            | Insn.Jump tgt -> t.fetch <- Fetching (fid, tgt)
            | Insn.Call callee ->
              Ras.push t.ras (va + Layout.insn_bytes);
              t.dispatch_stack <- (va + Layout.insn_bytes) :: t.dispatch_stack;
              t.dispatch_depth <- t.dispatch_depth + 1;
              t.fetch <- Fetching (callee, 0)
            | Insn.Icall _ -> (
              e.ghr_snap <- t.ghr;
              e.stack_snap <- t.dispatch_stack;
              e.depth_snap <- t.dispatch_depth;
              t.dispatch_stack <- (va + Layout.insn_bytes) :: t.dispatch_stack;
              t.dispatch_depth <- t.dispatch_depth + 1;
              match (if t.cfg.retpoline then None else Btb.lookup t.btb va) with
              | Some target -> (
                match Layout.decode_code_va target with
                | Some (_, tf, ti) ->
                  e.pred_target_va <- target;
                  Ras.push t.ras (va + Layout.insn_bytes);
                  t.fetch <- Fetching (tf, ti)
                | None ->
                  t.fetch <- Stalled_ctrl e.seq;
                  continue_fetch := false)
              | None ->
                t.fetch <- Stalled_ctrl e.seq;
                continue_fetch := false)
            | Insn.Ret -> (
              e.ghr_snap <- t.ghr;
              e.stack_snap <- t.dispatch_stack;
              e.depth_snap <- t.dispatch_depth;
              e.ret_depth <- t.dispatch_depth;
              (match t.dispatch_stack with
              | [] -> e.ret_target <- -1
              | target :: rest ->
                e.ret_target <- target;
                t.dispatch_stack <- rest;
                t.dispatch_depth <- t.dispatch_depth - 1);
              match Ras.pop t.ras with
              | Some pred_va -> (
                match Layout.decode_code_va pred_va with
                | Some (_, pf, pi) ->
                  e.pred_target_va <- pred_va;
                  t.fetch <- Fetching (pf, pi)
                | None ->
                  t.fetch <- Stalled_ctrl e.seq;
                  continue_fetch := false)
              | None ->
                t.fetch <- Stalled_ctrl e.seq;
                continue_fetch := false)
            | Insn.Syscall | Insn.Sysret | Insn.Halt ->
              t.fetch <- Stalled_serial;
              continue_fetch := false
            | Insn.Nop | Insn.Limm _ | Insn.Alu _ | Insn.Alui _ | Insn.Load _
            | Insn.Store _ | Insn.Fence | Insn.Flush _ ->
              t.fetch <- Fetching (fid, idx + 1)
          end
        end)
  done

(* ------------------------------------------------------------------ *)
(* Top-level run loop                                                   *)
(* ------------------------------------------------------------------ *)

let reset_run_state t ~asid ~start regs =
  (* Pool entries need no clearing: [make_entry] reinitializes every field
     and nothing reads outside the head/count window. *)
  Array.fill t.retired_seq 0 (cap t) (-1);
  Array.blit regs 0 t.arf 0 Insn.num_regs;
  Array.fill t.rat 0 Insn.num_regs (-1);
  t.fwd_len <- 0;
  t.head <- 0;
  t.count <- 0;
  t.next_seq <- 0;
  t.ghr <- 0;
  t.fetch <- Fetching (start, 0);
  t.fetch_ready_at <- 0;
  t.last_fetch_line <- -1;
  t.dispatch_stack <- [];
  t.dispatch_depth <- 0;
  t.commit_stack <- [];
  t.commit_depth <- 0;
  t.lq_used <- 0;
  t.sq_used <- 0;
  t.next_done_at <- max_int;
  t.act_len <- 0;
  t.settled <- false;
  t.asid <- asid;
  t.kernel_mode <- is_kernel_fid t start;
  t.run_outcome <- None

(* Charge a zero-commit cycle to one stall class by inspecting the ROB head,
   root cause first: an empty ROB is a fetch stall; a head load parked by the
   guard is a fence stall of that source; a head still executing is memory
   (loads/returns) or execution latency; otherwise back-pressure (ROB/LSQ
   full) and finally the residual [exec] class (e.g. operands in flight), so
   the classes always sum to [stall_total]. *)
let classify_stall t =
  let c = t.ctrs in
  c.stall_total <- c.stall_total + 1;
  if t.count = 0 then c.stall_fetch <- c.stall_fetch + 1
  else begin
    let e = entry_at t 0 in
    match e.blocked with
    | Some src when e.state <> Completed -> (
      (* Still blocked at the guard (Waiting), or released at the
         visibility point and now waiting out memory latency the fence
         exposed by delaying the issue (Issued): either way the fence is
         what keeps the head from committing, so it gets the cycle. *)
      match src with
      | Guard.Isv -> c.stall_fence_isv <- c.stall_fence_isv + 1
      | Guard.Dsv -> c.stall_fence_dsv <- c.stall_fence_dsv + 1
      | Guard.Baseline -> c.stall_fence_baseline <- c.stall_fence_baseline + 1)
    | Some _ | None ->
      if e.state = Issued then (
        match e.insn with
        | Insn.Load _ | Insn.Ret -> c.stall_dram <- c.stall_dram + 1
        | _ -> c.stall_exec <- c.stall_exec + 1)
      else if t.count = cap t then c.stall_rob_full <- c.stall_rob_full + 1
      else if t.lq_used >= t.cfg.lq_entries || t.sq_used >= t.cfg.sq_entries then
        c.stall_lsq <- c.stall_lsq + 1
      else c.stall_exec <- c.stall_exec + 1
  end

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
    t.now <- t.now + 1;
    t.ctrs.cycles <- t.ctrs.cycles + 1;
    if t.kernel_mode then t.ctrs.kernel_cycles <- t.ctrs.kernel_cycles + 1;
    completion_step t;
    let committed_before = t.ctrs.committed in
    commit_step t;
    if t.run_outcome = None then begin
      if t.ctrs.committed = committed_before then classify_stall t;
      issue_step t;
      fetch_step t
    end
  done;
  let outcome = match t.run_outcome with Some o -> o | None -> Out_of_fuel in
  {
    outcome;
    cycles = elapsed ();
    committed = t.ctrs.committed - start_committed;
    regs = Array.copy t.arf;
  }
