module I = Pv_isa.Insn
module Asm = Pv_isa.Asm
module Layout = Pv_isa.Layout
module Program = Pv_isa.Program
module Iss = Pv_isa.Iss
module Pipeline = Pv_uarch.Pipeline
module Physmem = Pv_kernel.Physmem
module Defense = Perspective.Defense
module Bitset = Pv_util.Bitset
module Rng = Pv_util.Rng

type variant = Array_index | Pointer_arith | Type_confusion

let variant_name = function
  | Array_index -> "array-index (CVE-2022-27223)"
  | Pointer_arith -> "pointer-arith (eBPF CVEs)"
  | Type_confusion -> "type-confusion (CVE-2021-33624)"

(* Function ids: 0 = vulnerable syscall (kernel), 1 = attacker train loop
   (user), 2 = attacker out-of-bounds trigger (user). *)
let vuln_fid = 0

let train_fid = 1

let trigger_fid = 2

let transmit_tail a =
  (* r4 holds the speculatively accessed word: transmit its low byte. *)
  Asm.alui a I.And 4 4 255;
  Asm.alui a I.Mul 4 4 64;
  Asm.alu a I.Add 5 10 4;
  Asm.load a 6 5 0;
  ()

(* Kernel registers at entry: r1 = attacker-controlled argument, r8 = object
   base, r9 = bound/type-tag location, r10 = covert-channel array base. *)
let vuln_body variant =
  let a = Asm.create () in
  let out = Asm.fresh_label a in
  (match variant with
  | Array_index ->
    Asm.load a 2 9 0 (* array1_size; the attacker evicts this line *);
    Asm.branch a I.Ge 1 2 out (* bounds check, mistrained *);
    Asm.alu a I.Add 3 8 1;
    Asm.load a 4 3 0 (* access: out of bounds reads the victim's word *);
    transmit_tail a
  | Pointer_arith ->
    Asm.load a 2 9 0 (* element count; evicted *);
    Asm.branch a I.Ge 1 2 out;
    (* The check validated the index, but the pointer is scaled by the
       element size - in-bounds-looking arithmetic escapes the object. *)
    Asm.alui a I.Mul 3 1 512;
    Asm.alu a I.Add 3 8 3;
    Asm.load a 4 3 0;
    transmit_tail a
  | Type_confusion ->
    Asm.load a 2 9 0 (* the object's type tag; evicted *);
    Asm.li a 14 0;
    Asm.branch a I.Ne 2 14 out (* trained: tag = 0 = "r1 is a buffer pointer" *);
    Asm.load a 4 1 0 (* dereference the attacker-supplied scalar *);
    transmit_tail a);
  Asm.place a out;
  Asm.sysret a;
  Asm.finish a

let user_loop ~count ~idx =
  let a = Asm.create () in
  let loop = Asm.fresh_label a in
  let done_ = Asm.fresh_label a in
  Asm.li a 6 0;
  Asm.li a 7 count;
  Asm.place a loop;
  Asm.branch a I.Ge 6 7 done_;
  Asm.li a 0 0;
  Asm.li a 1 idx;
  Asm.syscall a;
  Asm.alui a I.Add 6 6 1;
  Asm.jump a loop;
  Asm.place a done_;
  Asm.halt a;
  Asm.finish a

let attacker_asid = 1

let victim_ctx = 2

let attacker_ctx = 1

(* The attack's frames, in allocation order: array1, the bound/tag word,
   the 4-page covert channel and the victim's secret.  Addresses depend only
   on the order of [Physmem] calls, so running this on a bare pool of a
   lab's size yields the addresses the attack argument needs before the lab
   is built, and running it again on the lab's pool yields the same ones. *)
let alloc_layout phys =
  let page ~order owner =
    match Physmem.alloc_pages phys ~order owner with
    | Some f -> Physmem.frame_va f
    | None -> failwith "v1: out of frames"
  in
  let array1 = page ~order:0 (Physmem.Cgroup attacker_ctx) in
  let bound_va = page ~order:0 (Physmem.Cgroup attacker_ctx) in
  let transmit = page ~order:2 (Physmem.Cgroup attacker_ctx) in
  let secret_va = page ~order:0 (Physmem.Cgroup victim_ctx) in
  (array1, bound_va, transmit, secret_va)

let build_lab ~trace ~variant ~train_idx ~attack_idx =
  let prog =
    Program.of_funcs
      [
        {
          Program.fid = vuln_fid;
          name = "k_vuln_" ^ (match variant with
                             | Array_index -> "read"
                             | Pointer_arith -> "bpf"
                             | Type_confusion -> "ioctl");
          space = Layout.Kernel;
          body = vuln_body variant;
        };
        { Program.fid = train_fid; name = "attacker_train"; space = Layout.User;
          body = user_loop ~count:64 ~idx:train_idx };
        { Program.fid = trigger_fid; name = "attacker_trigger"; space = Layout.User;
          body = user_loop ~count:1 ~idx:attack_idx };
      ]
  in
  Lab.create ~prog
    ~node_of_fid:(fun fid -> if fid = vuln_fid then Some 0 else None)
    ~nnodes:4 ~trace ()

let run ?(seed = 7) ?(variant = Array_index) ?secret ?(trace = false) ?on_commit
    ?observe ~scheme () =
  let rng = Rng.create seed in
  let secret = match secret with Some s -> s land 255 | None -> Rng.int rng 256 in
  (* The layout on a bare pool gives the addresses the trigger program's
     attack argument is baked from; the lab then allocates the same frames. *)
  let array1_0, _, _, secret_va_0 = alloc_layout (Physmem.create ~frames:Lab.frames) in
  let train_idx, attack_idx =
    match variant with
    | Array_index -> (8, secret_va_0 - array1_0)
    | Pointer_arith -> (1, (secret_va_0 - array1_0) / 512)
    | Type_confusion -> (array1_0 (* its own buffer, a legal pointer *), secret_va_0)
  in
  let lab = build_lab ~trace ~variant ~train_idx ~attack_idx in
  let array1, bound_va, transmit, secret_va = alloc_layout (Lab.phys lab) in
  assert (array1 = array1_0 && secret_va = secret_va_0);
  (match variant with
  | Array_index -> Lab.store lab bound_va 64
  | Pointer_arith ->
    (* Few elements: the scaled attack index always fails the check
       architecturally, so the out-of-object read is transient-only. *)
    Lab.store lab bound_va 4
  | Type_confusion -> Lab.store lab bound_va 0 (* tag: buffer type *));
  Lab.store lab secret_va secret;
  for i = 0 to 63 do
    Lab.store lab (array1 + (i * 8)) 0
  done;
  (* Both contexts trust the vulnerable syscall: it is inside the attacker's
     ISV - active attacks are the DSV's job. *)
  let isv = Bitset.of_list 4 [ 0; 1; 2; 3 ] in
  Lab.install lab ~scheme ~views:[ (attacker_asid, attacker_ctx, isv) ];
  let pipe = Lab.pipeline lab in
  let hooks =
    {
      Pipeline.on_syscall =
        (fun _regs ->
          Iss.Redirect (vuln_fid, [ (8, array1); (9, bound_va); (10, transmit) ]));
      on_sysret = (fun _ -> Iss.Skip);
      on_commit;
    }
  in
  (* 1. Mistrain the guarding branch with benign calls. *)
  let train = Pipeline.run ~hooks pipe ~asid:attacker_asid ~start:train_fid in
  (match train.Pipeline.outcome with
  | Pipeline.Halted -> ()
  | Pipeline.Out_of_fuel | Pipeline.Fault _ -> failwith "v1: training run failed");
  (* 2. For the type-confusion variant, the object's type changes between
     check and use (the kernel-state flip the CVE exploits). *)
  (match variant with
  | Type_confusion -> Lab.store lab bound_va 1
  | Array_index | Pointer_arith -> ());
  (* 3. Evict the bound/tag and the covert channel; the secret stays warm
     (the victim used it recently). *)
  Lab.flush lab bound_va;
  for s = 0 to 255 do
    Lab.flush lab (transmit + (s * 64))
  done;
  Lab.warm lab secret_va;
  let before = Pipeline.copy_counters (Pipeline.counters pipe) in
  (* 4. One malicious call. *)
  let attack = Pipeline.run ~hooks pipe ~asid:attacker_asid ~start:trigger_fid in
  (match attack.Pipeline.outcome with
  | Pipeline.Halted -> ()
  | Pipeline.Out_of_fuel | Pipeline.Fault _ -> failwith "v1: attack run failed");
  let delta = Pipeline.diff_counters (Pipeline.counters pipe) before in
  (* Observation point: the machine state is pristine post-attack — the
     contract checker snapshots cache signatures here, before the reload
     sweep perturbs them. *)
  (match observe with Some f -> f lab | None -> ());
  (* 5. Reload: which covert-channel line became hot? *)
  Lab.readout lab ~scheme ~secret ~fences:(Pipeline.total_fences delta) ~transmit

let run_all ?(seed = 7) () =
  List.filter_map
    (fun scheme ->
      if scheme = Defense.Perspective Perspective.Isv.All then None
      else Some (run ~seed ~scheme ()))
    Defense.all_schemes

let variants = [ Array_index; Pointer_arith; Type_confusion ]

let run_variants ?(seed = 7) ~scheme () =
  List.map (fun variant -> run ~seed ~variant ~scheme ()) variants
