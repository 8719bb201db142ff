(* Frozen record-based reference pipeline: a verbatim copy of the seed
   [Pv_uarch.Pipeline] implementation, kept as the equivalence oracle for the
   preallocated, work-skipping fast path that replaced it.  The equivalence
   and contract suites (test_equiv.ml, test_contracts.ml) run programs
   through both and assert identical commit streams, cycle counts,
   architectural state, stall attribution and event traces.  Do not optimize
   this module — its value is that it stays byte-for-byte the seed model. *)

module Btb = Pv_uarch.Btb
module Cache = Pv_uarch.Cache
module Guard = Pv_uarch.Guard
module Memsys = Pv_uarch.Memsys
module Ras = Pv_uarch.Ras
module Tage = Pv_uarch.Tage
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

type estate = Waiting | Issued | Completed

type entry = {
  seq : int;
  e_fid : int;
  e_idx : int;
  va : int;
  insn : Insn.t;
  kernel : bool;
  dest : int;
  src_reg : int array; (* -1 for unused slots *)
  src_seq : int array;
  src_val : int array;
  mutable state : estate;
  mutable done_at : int;
  mutable value : int;
  mutable eff_addr : int;
  mutable addr_known : bool;
  mutable store_val : int;
  is_ctrl : bool;
  mutable pred_taken : bool;
  mutable pred_target_va : int; (* -1 when fetch stalled on this entry *)
  mutable actual_taken : bool;
  mutable actual_target_va : int;
  mutable resolved : bool;
  mutable tage_meta : Tage.meta option;
  mutable ghr_snap : int;
  mutable stack_snap : int list;
  mutable depth_snap : int;
  mutable ret_target : int;
  mutable ret_depth : int;
  mutable blocked_src : Guard.source option;
  mutable spec_at_issue : bool;
  mutable vp_done : bool;
  mutable taint_root : int;
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
  rob : entry option array;
  retired_seq : int array;
  retired_val : int array;
  arf : int array;
  rat : int array;
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
  mutable now : int;
  mutable asid : int;
  mutable kernel_mode : bool;
  mutable run_outcome : outcome option;
  mutable saved_user_regs : int array option;
  mutable hooks : hooks;
  (* [| |] when tracing is off, so the disabled path costs one length test *)
  trace_buf : event array;
  mutable trace_count : int;
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
    rob = Array.make cap None;
    retired_seq = Array.make cap (-1);
    retired_val = Array.make cap 0;
    arf = Array.make Insn.num_regs 0;
    rat = Array.make Insn.num_regs (-1);
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
    now = 0;
    asid = 0;
    kernel_mode = false;
    run_outcome = None;
    saved_user_regs = None;
    hooks = null_hooks;
    trace_buf =
      (if config.trace_events && config.trace_capacity > 0 then
         Array.make config.trace_capacity dummy_event
       else [||]);
    trace_count = 0;
  }

let config t = t.cfg
let memsys t = t.memsys
let btb t = t.btb
let ras t = t.ras
let counters t = t.ctrs
let set_guard t g = t.guard <- g
let guard t = t.guard

let record_event t kind ~va ~seq =
  let n = Array.length t.trace_buf in
  if n > 0 then begin
    t.trace_buf.(t.trace_count mod n) <-
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

let entry_at t pos =
  match t.rob.((t.head + pos) mod cap t) with
  | Some e -> e
  | None -> assert false

let func_space t fid = (Program.func t.prog fid).Program.space

let is_kernel_fid t fid = func_space t fid = Layout.Kernel

let insn_va_of t fid idx = Layout.insn_va (func_space t fid) fid idx

(* Retire-value lookup for operands whose producer already committed. *)
let retired_value t s =
  let slot = s mod cap t in
  if t.retired_seq.(slot) = s then Some t.retired_val.(slot) else None

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

let make_entry t fid idx insn =
  let dest, s0, s1 = src_info insn in
  let src_reg = [| s0; s1 |] in
  let src_seq = [| -1; -1 |] in
  let src_val = [| 0; 0 |] in
  for i = 0 to 1 do
    let r = src_reg.(i) in
    if r >= 0 then
      if t.rat.(r) >= 0 then src_seq.(i) <- t.rat.(r) else src_val.(i) <- t.arf.(r)
  done;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let e =
    {
      seq;
      e_fid = fid;
      e_idx = idx;
      va = insn_va_of t fid idx;
      insn;
      kernel = is_kernel_fid t fid;
      dest;
      src_reg;
      src_seq;
      src_val;
      state = Waiting;
      done_at = 0;
      value = 0;
      eff_addr = 0;
      addr_known = false;
      store_val = 0;
      is_ctrl =
        (match insn with Insn.Branch _ | Insn.Icall _ | Insn.Ret -> true | _ -> false);
      pred_taken = false;
      pred_target_va = -1;
      actual_taken = false;
      actual_target_va = -1;
      resolved = false;
      tage_meta = None;
      ghr_snap = 0;
      stack_snap = [];
      depth_snap = 0;
      ret_target = -1;
      ret_depth = 0;
      blocked_src = None;
      spec_at_issue = false;
      vp_done = false;
      taint_root = -1;
      fault = None;
    }
  in
  if dest >= 0 then t.rat.(dest) <- seq;
  t.rob.((t.head + t.count) mod cap t) <- Some e;
  t.count <- t.count + 1;
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
    let e = entry_at t i in
    (match e.insn with
    | Insn.Load _ -> t.lq_used <- t.lq_used - 1
    | Insn.Store _ -> t.sq_used <- t.sq_used - 1
    | _ -> ());
    t.rob.((t.head + i) mod cap t) <- None
  done;
  let removed = t.count - pos - 1 in
  t.count <- pos + 1;
  t.next_seq <- t.next_seq - removed;
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
    | Some meta -> Tage.update t.tage ~pc:e.va ~hist:e.ghr_snap meta ~taken:e.actual_taken
    | None -> ());
    if e.actual_taken <> e.pred_taken then begin
      t.ctrs.branch_mispredicts <- t.ctrs.branch_mispredicts + 1;
      let ghr' = (e.ghr_snap lsl 1) lor (if e.actual_taken then 1 else 0) in
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

let completion_step t =
  let i = ref 0 in
  let stop = ref false in
  while (not !stop) && !i < t.count do
    let e = entry_at t !i in
    if e.state = Issued && e.done_at <= t.now then begin
      e.state <- Completed;
      if e.is_ctrl then if resolve_ctrl t !i e then stop := true
    end;
    incr i
  done

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
  t.rob.(t.head) <- None;
  t.head <- (t.head + 1) mod cap t;
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
        if e.kernel then t.ctrs.committed_kernel <- t.ctrs.committed_kernel + 1;
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

let capture_operand t e i =
  (* Returns true when operand [i] is available (capturing it if needed). *)
  let s = e.src_seq.(i) in
  if s < 0 then true
  else
    let pos = pos_of_seq t s in
    if pos < 0 then (
      match retired_value t s with
      | Some v ->
        e.src_val.(i) <- v;
        e.src_seq.(i) <- -1;
        true
      | None -> false)
    else
      let p = entry_at t pos in
      if p.state = Completed then begin
        e.src_val.(i) <- p.value;
        e.src_seq.(i) <- -1;
        if root_active t p.taint_root then
          e.taint_root <- max e.taint_root p.taint_root;
        true
      end
      else false

let operands_ready t e = capture_operand t e 0 && capture_operand t e 1

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
    | _ ->
      let lat, _hit = Memsys.data_read t.memsys key in
      lat
  in
  e.value <- Mem.load (Memsys.mem t.memsys) key;
  e.done_at <- t.now + lat;
  e.state <- Issued;
  e.spec_at_issue <- speculative;
  if speculative then begin
    t.ctrs.spec_loads <- t.ctrs.spec_loads + 1;
    e.taint_root <- max e.taint_root e.seq
  end

let issue_step t =
  let budget = ref t.cfg.issue_width in
  let older_unresolved_ctrl = ref false in
  let older_fence_incomplete = ref false in
  let all_older_completed = ref true in
  let older_store_unknown = ref false in
  let store_fwd = ref [] in
  (* (word address, value), youngest first *)
  for i = 0 to t.count - 1 do
    let e = entry_at t i in
    let speculative = !older_unresolved_ctrl in
    (* Visibility point: no older instruction can squash this one. *)
    if
      Insn.is_load e.insn && not e.vp_done
      && (e.state = Issued || e.state = Completed)
      && not speculative
    then begin
      e.vp_done <- true;
      (* Only architecturally-surviving loads reach here, so the dload trace
         is the sequential projection of the D-cache access stream. *)
      if Array.length t.trace_buf > 0 && e.addr_known then
        record_event t
          (Ev_dload (Layout.phys_key ~asid:t.asid e.eff_addr / Layout.line_bytes))
          ~va:e.va ~seq:e.seq;
      match t.guard.Guard.notify_vp with
      | Some f when e.addr_known ->
        f ~insn_va:e.va ~addr:e.eff_addr ~asid:t.asid ~kernel_mode:e.kernel
      | Some _ | None -> ()
    end;
    if e.state = Waiting && !budget > 0 && not !older_fence_incomplete then begin
      match e.insn with
      | Insn.Nop | Insn.Jump _ | Insn.Call _ | Insn.Syscall | Insn.Sysret
      | Insn.Halt ->
        decr budget;
        e.state <- Issued;
        e.done_at <- t.now + 1
      | Insn.Fence ->
        if !all_older_completed then begin
          decr budget;
          e.state <- Issued;
          e.done_at <- t.now + 1
        end
      | Insn.Limm (_, v) ->
        decr budget;
        e.value <- v;
        e.state <- Issued;
        e.done_at <- t.now + 1
      | Insn.Alu (op, _, _, _) ->
        if operands_ready t e then begin
          decr budget;
          e.value <- Insn.eval_binop op e.src_val.(0) e.src_val.(1);
          e.state <- Issued;
          e.done_at <- t.now + 1
        end
      | Insn.Alui (op, _, _, v) ->
        if operands_ready t e then begin
          decr budget;
          e.value <- Insn.eval_binop op e.src_val.(0) v;
          e.state <- Issued;
          e.done_at <- t.now + 1
        end
      | Insn.Branch (c, _, _, tgt) ->
        if operands_ready t e then begin
          decr budget;
          e.actual_taken <- Insn.eval_cond c e.src_val.(0) e.src_val.(1);
          let next_idx = if e.actual_taken then tgt else e.e_idx + 1 in
          e.actual_target_va <- insn_va_of t e.e_fid next_idx;
          e.state <- Issued;
          e.done_at <- t.now + t.cfg.branch_latency
        end
      | Insn.Icall _ ->
        if operands_ready t e then begin
          decr budget;
          let target = e.src_val.(0) in
          (match Layout.decode_code_va target with
          | Some (space, f, _)
            when f < Program.length t.prog && func_space t f = space ->
            e.actual_target_va <- target
          | Some _ | None ->
            e.fault <- Some (Printf.sprintf "icall to invalid VA %#x" target));
          e.state <- Issued;
          e.done_at <- t.now + t.cfg.branch_latency
        end
      | Insn.Ret ->
        decr budget;
        (if e.ret_target < 0 then e.fault <- Some "ret with empty stack"
         else e.actual_target_va <- e.ret_target);
        (* Returning reads the architectural stack: a flushed stack line
           delays resolution, widening the transient window (Spectre-RSB). *)
        let key = ret_stack_va ~asid:t.asid ~depth:e.ret_depth in
        let lat, _ = Memsys.data_read t.memsys key in
        e.state <- Issued;
        e.done_at <- t.now + lat
      | Insn.Flush (_, off) ->
        if operands_ready t e then begin
          decr budget;
          e.eff_addr <- e.src_val.(0) + off;
          e.addr_known <- true;
          e.state <- Issued;
          e.done_at <- t.now + 1
        end
      | Insn.Store (_, _, off) ->
        if operands_ready t e then begin
          decr budget;
          e.eff_addr <- e.src_val.(0) + off;
          e.store_val <- e.src_val.(1);
          e.addr_known <- true;
          e.state <- Issued;
          e.done_at <- t.now + 1
        end
      | Insn.Load (_, _, off) ->
        if operands_ready t e && not !older_store_unknown then begin
          e.eff_addr <- e.src_val.(0) + off;
          e.addr_known <- true;
          let word = e.eff_addr lsr 3 in
          match List.assoc_opt word !store_fwd with
          | Some v ->
            (* Store-to-load forwarding: no cache access. *)
            decr budget;
            e.value <- v;
            e.state <- Issued;
            e.done_at <- t.now + 1;
            e.spec_at_issue <- speculative
          | None ->
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
            (match t.guard.Guard.check query with
            | Guard.Allow ->
              decr budget;
              issue_load_to_memory t e ~speculative
            | Guard.Block src ->
              if e.blocked_src = None then begin
                e.blocked_src <- Some src;
                count_fence t src;
                record_event t (Ev_fence src) ~va:e.va ~seq:e.seq
              end)
        end
    end
    else if
      e.state = Waiting && !budget > 0 && e.blocked_src <> None && not speculative
    then begin
      (* A fenced load at its visibility point issues non-speculatively. *)
      decr budget;
      record_event t Ev_vp_release ~va:e.va ~seq:e.seq;
      issue_load_to_memory t e ~speculative:false
    end;
    (* Update running flags with this entry included. *)
    if e.is_ctrl && not e.resolved then older_unresolved_ctrl := true;
    (match e.insn with
    | Insn.Fence when e.state <> Completed -> older_fence_incomplete := true
    | Insn.Store _ ->
      if e.addr_known then store_fwd := (e.eff_addr lsr 3, e.store_val) :: !store_fwd
      else older_store_unknown := true
    | _ -> ());
    if e.state <> Completed then all_older_completed := false
  done

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
        let e = make_entry t fid idx Insn.Halt in
        e.fault <- Some (Printf.sprintf "fell off function f%d at %d" fid idx);
        e.state <- Issued;
        e.done_at <- t.now + 1;
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
            let e = make_entry t fid idx insn in
            match insn with
            | Insn.Branch (_, _, _, tgt) ->
              let meta = Tage.predict t.tage ~pc:va ~hist:t.ghr in
              let pred = Tage.predicted meta in
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
  Array.fill t.rob 0 (cap t) None;
  Array.fill t.retired_seq 0 (cap t) (-1);
  Array.blit regs 0 t.arf 0 Insn.num_regs;
  Array.fill t.rat 0 Insn.num_regs (-1);
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
    match e.blocked_src with
    | Some src when e.state <> Completed -> (
      (* Still blocked at the guard (Waiting), or released at the
         visibility point and now waiting out memory latency the fence
         exposed by delaying the issue (Issued): either way the fence is
         what keeps the head from committing, so it gets the cycle. *)
      match src with
      | Guard.Isv -> c.stall_fence_isv <- c.stall_fence_isv + 1
      | Guard.Dsv -> c.stall_fence_dsv <- c.stall_fence_dsv + 1
      | Guard.Baseline -> c.stall_fence_baseline <- c.stall_fence_baseline + 1)
    | _ ->
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
