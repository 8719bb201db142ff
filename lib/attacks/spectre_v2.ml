module I = Pv_isa.Insn
module Asm = Pv_isa.Asm
module Layout = Pv_isa.Layout
module Program = Pv_isa.Program
module Iss = Pv_isa.Iss
module Pipeline = Pv_uarch.Pipeline
module Physmem = Pv_kernel.Physmem
module Defense = Perspective.Defense
module Isv = Perspective.Isv
module Bitset = Pv_util.Bitset
module Rng = Pv_util.Rng

(* fids: 0 = dispatching syscall V (kernel), 1 = benign ops T (kernel),
   2 = gadget ops G (kernel), 3 = attacker driver, 4 = victim driver. *)
let v_fid = 0

let t_fid = 1

let g_fid = 2

let attacker_fid = 3

let victim_fid = 4

(* V: load the caller's data reference, then dispatch through the caller's
   ops table.  r9 = per-context parameter block, r13 = ops table. *)
let v_body () =
  let a = Asm.create () in
  Asm.load a 1 9 16 (* reference to the caller's buffer / secret *);
  Asm.load a 14 13 0 (* function pointer; evicted by the attacker *);
  Asm.icall a 14;
  Asm.sysret a;
  Asm.finish a

let t_body () =
  let a = Asm.create () in
  Asm.load a 4 1 0 (* benign ops: uses the reference legitimately *);
  Asm.alui a I.Add 15 4 1;
  Asm.ret a;
  Asm.finish a

(* G: the transient-execution gadget — dereference the (type-confused)
   reference in r1 and transmit it.  r10 = covert-channel base. *)
let g_body () =
  let a = Asm.create () in
  Asm.load a 4 1 0;
  Asm.alui a I.And 4 4 255;
  Asm.alui a I.Mul 4 4 64;
  Asm.alu a
I.Add 5 10 4;
  Asm.load a 6 5 0;
  Asm.ret a;
  Asm.finish a

let driver ~count =
  let a = Asm.create () in
  let loop = Asm.fresh_label a in
  let done_ = Asm.fresh_label a in
  Asm.li a 6 0;
  Asm.li a 7 count;
  Asm.place a loop;
  Asm.branch a I.Ge 6 7 done_;
  Asm.li a 0 0;
  Asm.syscall a;
  Asm.alui a I.Add 6 6 1;
  Asm.jump a loop;
  Asm.place a done_;
  Asm.halt a;
  Asm.finish a

let attacker_asid = 1

let victim_asid = 2

let attacker_ctx = 1

let victim_ctx = 2

let node_of_fid fid =
  if fid = v_fid then Some 0
  else if fid = t_fid then Some 1
  else if fid = g_fid then Some 2
  else None

let run ?(seed = 11) ?secret ?(trace = false) ?on_commit ?observe ~scheme () =
  let rng = Rng.create seed in
  let secret = match secret with Some s -> s land 255 | None -> Rng.int rng 256 in
  let prog =
    Program.of_funcs
      [
        { Program.fid = v_fid; name = "k_vfs_dispatch"; space = Layout.Kernel; body = v_body () };
        { Program.fid = t_fid; name = "k_benign_ops"; space = Layout.Kernel; body = t_body () };
        { Program.fid = g_fid; name = "k_gadget_ops"; space = Layout.Kernel; body = g_body () };
        { Program.fid = attacker_fid; name = "attacker"; space = Layout.User; body = driver ~count:64 };
        { Program.fid = victim_fid; name = "victim"; space = Layout.User; body = driver ~count:1 };
      ]
  in
  let lab = Lab.create ~prog ~node_of_fid ~nnodes:4 ~trace () in
  let alloc1 owner =
    match Lab.alloc lab ~owner ~count:1 with [ va ] -> va | _ -> assert false
  in
  (* Per-context parameter blocks and ops tables. *)
  let att_params = alloc1 (Physmem.Cgroup attacker_ctx) in
  let att_table = alloc1 (Physmem.Cgroup attacker_ctx) in
  let att_buffer = alloc1 (Physmem.Cgroup attacker_ctx) in
  let vic_params = alloc1 (Physmem.Cgroup victim_ctx) in
  let vic_table = alloc1 (Physmem.Cgroup victim_ctx) in
  let vic_secret = alloc1 (Physmem.Cgroup victim_ctx) in
  (* The covert channel lives in victim-owned memory so that every gadget
     access stays inside the victim's DSV (the attacker reloads through the
     shared physical lines). *)
  let transmit =
    match Physmem.alloc_pages (Lab.phys lab) ~order:2 (Physmem.Cgroup victim_ctx) with
    | Some f -> Physmem.frame_va f
    | None -> failwith "no frames"
  in
  Lab.store lab vic_secret secret;
  Lab.store lab att_buffer 0;
  Lab.store lab (att_params + 16) att_buffer;
  Lab.store lab (vic_params + 16) vic_secret;
  (* The attacker's file type uses the gadget ops; the victim's uses the
     benign ops. *)
  Lab.store lab att_table (Layout.func_base Layout.Kernel g_fid);
  Lab.store lab vic_table (Layout.func_base Layout.Kernel t_fid);
  (* Views: the victim's ISV holds only the functions it uses (V, T); the
     attacker's also holds G, which it calls legitimately. *)
  let att_isv = Bitset.of_list 4 [ 0; 1; 2 ] in
  let vic_isv =
    (* The DSV-only configuration models an ISV that admits everything. *)
    match scheme with
    | Defense.Perspective Isv.All -> Bitset.of_list 4 [ 0; 1; 2; 3 ]
    | Defense.Perspective (Isv.Static | Isv.Dynamic | Isv.Plus)
    | Defense.Unsafe | Defense.Fence | Defense.Dom | Defense.Stt
    | Defense.Safespec | Defense.Specbox ->
      Bitset.of_list 4 [ 0; 1 ]
  in
  Lab.install lab ~scheme
    ~views:[ (attacker_asid, attacker_ctx, att_isv); (victim_asid, victim_ctx, vic_isv) ];
  let pipe = Lab.pipeline lab in
  let hooks_for params table =
    {
      Pipeline.on_syscall =
        (fun _ -> Iss.Redirect (v_fid, [ (9, params); (10, transmit); (13, table) ]));
      on_sysret = (fun _ -> Iss.Skip);
      on_commit;
    }
  in
  (* 1. Attacker trains the BTB entry of V's indirect call toward G by
     making the same syscall with its own (gadget-bound) ops table. *)
  let train =
    Pipeline.run ~hooks:(hooks_for att_params att_table) pipe ~asid:attacker_asid
      ~start:attacker_fid
  in
  (match train.Pipeline.outcome with
  | Pipeline.Halted -> ()
  | Pipeline.Out_of_fuel | Pipeline.Fault _ -> failwith "v2: training run failed");
  (* 2. Evict the victim's function pointer (wide transient window) and the
     covert channel; the secret stays warm. *)
  Lab.flush lab vic_table;
  for s = 0 to 255 do
    Lab.flush lab (transmit + (s * 64))
  done;
  Lab.warm lab vic_secret;
  Lab.warm lab vic_params;
  let before = Pipeline.copy_counters (Pipeline.counters pipe) in
  (* 3. The victim makes one innocent syscall. *)
  let victim =
    Pipeline.run ~hooks:(hooks_for vic_params vic_table) pipe ~asid:victim_asid
      ~start:victim_fid
  in
  (match victim.Pipeline.outcome with
  | Pipeline.Halted -> ()
  | Pipeline.Out_of_fuel | Pipeline.Fault _ -> failwith "v2: victim run failed");
  let delta = Pipeline.diff_counters (Pipeline.counters pipe) before in
  (* Observation point for the contract checker (pre-reload). *)
  (match observe with Some f -> f lab | None -> ());
  (* 4. Attacker decodes the covert channel. *)
  Lab.readout lab ~scheme ~secret ~fences:(Pipeline.total_fences delta) ~transmit

let run_all ?(seed = 11) () =
  List.map (fun scheme -> run ~seed ~scheme ()) Defense.all_schemes

type patch_outcome = { before_patch : Lab.outcome; after_patch : Lab.outcome }

let run_patch_demo ?(seed = 17) () =
  let rng = Rng.create seed in
  let secret = Rng.int rng 256 in
  let prog =
    Program.of_funcs
      [
        { Program.fid = v_fid; name = "k_vfs_dispatch"; space = Layout.Kernel; body = v_body () };
        { Program.fid = t_fid; name = "k_benign_ops"; space = Layout.Kernel; body = t_body () };
        { Program.fid = g_fid; name = "k_gadget_ops"; space = Layout.Kernel; body = g_body () };
        { Program.fid = attacker_fid; name = "attacker"; space = Layout.User; body = driver ~count:64 };
        { Program.fid = victim_fid; name = "victim"; space = Layout.User; body = driver ~count:1 };
      ]
  in
  let lab = Lab.create ~prog ~node_of_fid ~nnodes:4 () in
  let alloc1 owner =
    match Lab.alloc lab ~owner ~count:1 with [ va ] -> va | _ -> assert false
  in
  let att_params = alloc1 (Physmem.Cgroup attacker_ctx) in
  let att_table = alloc1 (Physmem.Cgroup attacker_ctx) in
  let att_buffer = alloc1 (Physmem.Cgroup attacker_ctx) in
  let vic_params = alloc1 (Physmem.Cgroup victim_ctx) in
  let vic_table = alloc1 (Physmem.Cgroup victim_ctx) in
  let vic_secret = alloc1 (Physmem.Cgroup victim_ctx) in
  let transmit =
    match Physmem.alloc_pages (Lab.phys lab) ~order:2 (Physmem.Cgroup victim_ctx) with
    | Some f -> Physmem.frame_va f
    | None -> failwith "no frames"
  in
  Lab.store lab vic_secret secret;
  Lab.store lab att_buffer 0;
  Lab.store lab (att_params + 16) att_buffer;
  Lab.store lab (vic_params + 16) vic_secret;
  Lab.store lab att_table (Layout.func_base Layout.Kernel g_fid);
  Lab.store lab vic_table (Layout.func_base Layout.Kernel t_fid);
  (* The victim's profile wrongly included the gadget function (say, it was
     traced once during profiling): node 2 is in the view. *)
  let scheme = Defense.Perspective Isv.Dynamic in
  let att_isv = Bitset.of_list 4 [ 0; 1; 2 ] in
  let vic_isv_bits = Bitset.of_list 4 [ 0; 1; 2 ] in
  Lab.install lab ~scheme
    ~views:[ (attacker_asid, attacker_ctx, att_isv); (victim_asid, victim_ctx, vic_isv_bits) ];
  let pipe = Lab.pipeline lab in
  let hooks_for params table =
    {
      Pipeline.on_syscall =
        (fun _ -> Iss.Redirect (v_fid, [ (9, params); (10, transmit); (13, table) ]));
      on_sysret = (fun _ -> Iss.Skip);
      on_commit = None;
    }
  in
  let attack () =
    let train =
      Pipeline.run ~hooks:(hooks_for att_params att_table) pipe ~asid:attacker_asid
        ~start:attacker_fid
    in
    (match train.Pipeline.outcome with
    | Pipeline.Halted -> ()
    | Pipeline.Out_of_fuel | Pipeline.Fault _ -> failwith "patch demo: training failed");
    Lab.flush lab vic_table;
    for s = 0 to 255 do
      Lab.flush lab (transmit + (s * 64))
    done;
    Lab.warm lab vic_secret;
    Lab.warm lab vic_params;
    let before = Pipeline.copy_counters (Pipeline.counters pipe) in
    let victim =
      Pipeline.run ~hooks:(hooks_for vic_params vic_table) pipe ~asid:victim_asid
        ~start:victim_fid
    in
    (match victim.Pipeline.outcome with
    | Pipeline.Halted -> ()
    | Pipeline.Out_of_fuel | Pipeline.Fault _ -> failwith "patch demo: victim failed");
    let delta = Pipeline.diff_counters (Pipeline.counters pipe) before in
    Lab.readout lab ~scheme ~secret ~fences:(Pipeline.total_fences delta) ~transmit
  in
  let before_patch = attack () in
  (* A CVE lands for k_gadget_ops: exclude it from the victim's live view
     and drop the now-stale hardware state - no kernel patch, no reboot. *)
  (match Lab.defense lab with
  | Some d ->
    (match
       Perspective.View_manager.isv_of_ctx (Defense.view_manager d) victim_ctx
     with
    | Some isv -> Isv.exclude isv 2
    | None -> ());
    Defense.note_view_changed d ~insn_va:(Layout.insn_va Layout.Kernel g_fid 0)
  | None -> ());
  let after_patch = attack () in
  { before_patch; after_patch }
