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

(* fids: 0 = victim syscall V (kernel), 1 = small callee D (user),
   2 = attacker poisoner with embedded gadget (user), 3 = victim driver. *)
let v_fid = 0

let d_fid = 1

let poison_fid = 2

let victim_fid = 3

(* V loads the secret reference and returns with an unbalanced Ret: the
   syscall entry pushed no RAS entry, so the return predictor serves
   whatever the attacker left behind. *)
let v_body () =
  let a = Asm.create () in
  Asm.load a 1 9 16;
  Asm.ret a;
  Asm.finish a

let d_body () =
  let a = Asm.create () in
  Asm.alui a I.Add 15 15 1;
  Asm.ret a;
  Asm.finish a

(* The poisoner calls D; the instructions after the call — the gadget — are
   the return address D's Ret leaves in the RAS slot.  The attacker also
   executes them architecturally (with its own junk in r1), which is
   harmless. *)
let poison_body () =
  let a = Asm.create () in
  Asm.li a 1 Layout.user_data_base (* junk reference for the architectural pass *);
  Asm.li a 10 Layout.user_data_base;
  Asm.call a d_fid;
  (* --- gadget: transiently reached via the stale RAS entry --- *)
  Asm.load a 4 1 0;
  Asm.alui a I.And 4 4 255;
  Asm.alui a I.Mul 4 4 64;
  Asm.alu a I.Add 5 10 4;
  Asm.load a 6 5 0;
  (* --- end gadget --- *)
  Asm.halt a;
  Asm.finish a

let victim_driver () =
  let a = Asm.create () in
  Asm.li a 0 0;
  Asm.syscall a;
  Asm.halt a;
  Asm.finish a

let attacker_asid = 1

let victim_asid = 2

let attacker_ctx = 1

let victim_ctx = 2

let node_of_fid fid = if fid = v_fid then Some 0 else None

let run ?(seed = 13) ?secret ?(trace = false) ?on_commit ?observe ~scheme () =
  let rng = Rng.create seed in
  let secret = match secret with Some s -> s land 255 | None -> Rng.int rng 256 in
  let prog =
    Program.of_funcs
      [
        { Program.fid = v_fid; name = "k_unbalanced_ret"; space = Layout.Kernel; body = v_body () };
        { Program.fid = d_fid; name = "poison_callee"; space = Layout.User; body = d_body () };
        { Program.fid = poison_fid; name = "attacker_poison"; space = Layout.User; body = poison_body () };
        { Program.fid = victim_fid; name = "victim"; space = Layout.User; body = victim_driver () };
      ]
  in
  let lab = Lab.create ~prog ~node_of_fid ~nnodes:2 ~trace () in
  let alloc1 owner =
    match Lab.alloc lab ~owner ~count:1 with [ va ] -> va | _ -> assert false
  in
  let vic_params = alloc1 (Physmem.Cgroup victim_ctx) in
  let vic_secret = alloc1 (Physmem.Cgroup victim_ctx) in
  let transmit =
    match Physmem.alloc_pages (Lab.phys lab) ~order:2 (Physmem.Cgroup victim_ctx) with
    | Some f -> Physmem.frame_va f
    | None -> failwith "no frames"
  in
  Lab.store lab vic_secret secret;
  Lab.store lab (vic_params + 16) vic_secret;
  let vic_isv = Bitset.of_list 2 [ 0 ] in
  let att_isv = Bitset.of_list 2 [ 0 ] in
  Lab.install lab ~scheme
    ~views:[ (attacker_asid, attacker_ctx, att_isv); (victim_asid, victim_ctx, vic_isv) ];
  let pipe = Lab.pipeline lab in
  let hooks =
    {
      Pipeline.on_syscall =
        (fun _ -> Iss.Redirect (v_fid, [ (9, vic_params); (10, transmit) ]));
      on_sysret = (fun _ -> Iss.Skip);
      on_commit;
    }
  in
  (* 1. Attacker leaves the gadget VA in the return address stack. *)
  let poison = Pipeline.run ~hooks pipe ~asid:attacker_asid ~start:poison_fid in
  (match poison.Pipeline.outcome with
  | Pipeline.Halted -> ()
  | Pipeline.Out_of_fuel | Pipeline.Fault _ -> failwith "rsb: poison run failed");
  (* 2. Evict the victim's return-stack line (slow return resolution) and
     the covert channel; keep the secret warm. *)
  Lab.flush lab (Pipeline.ret_stack_va ~asid:victim_asid ~depth:1);
  for s = 0 to 255 do
    Lab.flush lab (transmit + (s * 64))
  done;
  Lab.warm lab vic_secret;
  Lab.warm lab vic_params;
  (* The gadget sits in shared-library text: physically one page, hot from
     the attacker's own execution. *)
  for idx = 3 to 8 do
    Lab.warm_code lab ~asid:victim_asid (Layout.insn_va Layout.User poison_fid idx)
  done;
  let before = Pipeline.copy_counters (Pipeline.counters pipe) in
  (* 3. The victim's innocent system call. *)
  let victim = Pipeline.run ~hooks pipe ~asid:victim_asid ~start:victim_fid in
  (match victim.Pipeline.outcome with
  | Pipeline.Halted -> ()
  | Pipeline.Out_of_fuel | Pipeline.Fault _ -> failwith "rsb: victim run failed");
  let delta = Pipeline.diff_counters (Pipeline.counters pipe) before in
  (* Observation point for the contract checker (pre-reload). *)
  (match observe with Some f -> f lab | None -> ());
  Lab.readout lab ~scheme ~secret ~fences:(Pipeline.total_fences delta) ~transmit

let run_all ?(seed = 13) () =
  let schemes =
    [
      Defense.Unsafe;
      Defense.Fence;
      Defense.Dom;
      Defense.Stt;
      Defense.Perspective Perspective.Isv.Static;
      Defense.Perspective Perspective.Isv.Dynamic;
      Defense.Perspective Perspective.Isv.Plus;
      Defense.Safespec;
      Defense.Specbox;
    ]
  in
  List.map (fun scheme -> run ~seed ~scheme ()) schemes
