(* The out-of-order pipeline: architectural equivalence with the reference
   interpreter (including a QCheck random-program property), speculation
   semantics, squash recovery, store forwarding and guard behaviour. *)

module I = Pv_isa.Insn
module Layout = Pv_isa.Layout
module Mem = Pv_isa.Mem
module Program = Pv_isa.Program
module Asm = Pv_isa.Asm
module Iss = Pv_isa.Iss
module Memsys = Pv_uarch.Memsys
module Pipeline = Pv_uarch.Pipeline
module Guard = Pv_uarch.Guard

let check = Alcotest.check

let func fid name space body = { Program.fid; name; space; body }

let run_both prog ~start =
  let iss = Iss.run ~asid:1 ~mem:(Mem.create ()) prog ~start in
  let ms = Memsys.create (Pv_isa.Mem.create ()) in
  let pipe = Pipeline.create ms prog in
  let ooo = Pipeline.run pipe ~asid:1 ~start in
  (iss, ooo)

let same_outcome (iss : Iss.result) (ooo : Pipeline.result) =
  match (iss.Iss.outcome, ooo.Pipeline.outcome) with
  | Iss.Halted, Pipeline.Halted -> true
  | Iss.Fault _, Pipeline.Fault _ -> true
  | Iss.Out_of_fuel, Pipeline.Out_of_fuel -> true
  | _ -> false

let assert_equivalent prog ~start =
  let iss, ooo = run_both prog ~start in
  Alcotest.(check bool)
    (Printf.sprintf "outcomes agree (iss=%s ooo=%s)"
       (match iss.Iss.outcome with
       | Iss.Halted -> "halted"
       | Iss.Out_of_fuel -> "fuel"
       | Iss.Fault m -> "fault:" ^ m)
       (match ooo.Pipeline.outcome with
       | Pipeline.Halted -> "halted"
       | Pipeline.Out_of_fuel -> "fuel"
       | Pipeline.Fault m -> "fault:" ^ m))
    true (same_outcome iss ooo);
  if iss.Iss.outcome = Iss.Halted then begin
    check Alcotest.(array int) "registers agree" iss.Iss.regs ooo.Pipeline.regs;
    check Alcotest.int "instruction counts agree" iss.Iss.steps ooo.Pipeline.committed
  end

let test_equiv_loop_with_memory () =
  let a = Asm.create () in
  let loop = Asm.fresh_label a in
  let done_ = Asm.fresh_label a in
  Asm.li a 1 0;
  Asm.li a 2 0;
  Asm.li a 3 50;
  Asm.li a 4 Layout.user_data_base;
  Asm.place a loop;
  Asm.branch a I.Ge 1 3 done_;
  Asm.alu a I.Mul 5 1 1;
  Asm.store a 4 5 0;
  Asm.load a 6 4 0;
  Asm.alu a I.Add 2 2 6;
  Asm.alui a I.Add 1 1 1;
  Asm.jump a loop;
  Asm.place a done_;
  Asm.halt a;
  assert_equivalent
    (Program.of_funcs [ func 0 "m" Layout.User (Asm.finish a) ])
    ~start:0

let test_equiv_calls () =
  let main = [| I.Limm (1, 3); I.Call 1; I.Call 1; I.Call 1; I.Halt |] in
  let callee = [| I.Alu (I.Mul, 1, 1, 1); I.Ret |] in
  assert_equivalent
    (Program.of_funcs [ func 0 "m" Layout.User main; func 1 "c" Layout.User callee ])
    ~start:0

let test_equiv_icall () =
  let tva = Layout.func_base Layout.User 1 in
  let main = [| I.Limm (1, tva); I.Icall 1; I.Icall 1; I.Halt |] in
  let callee = [| I.Alui (I.Add, 2, 2, 5); I.Ret |] in
  assert_equivalent
    (Program.of_funcs [ func 0 "m" Layout.User main; func 1 "c" Layout.User callee ])
    ~start:0

let test_equiv_data_branches () =
  (* Branches on loaded values: heavy misprediction traffic. *)
  let a = Asm.create () in
  let loop = Asm.fresh_label a in
  let done_ = Asm.fresh_label a in
  let skip = Asm.fresh_label a in
  Asm.li a 1 0;
  Asm.li a 3 40;
  Asm.li a 4 Layout.user_data_base;
  Asm.li a 7 0;
  Asm.place a loop;
  Asm.branch a I.Ge 1 3 done_;
  Asm.alui a I.Mul 5 1 7;
  Asm.alui a I.And 5 5 127;
  Asm.store a 4 5 0;
  Asm.load a 6 4 0;
  Asm.alui a I.And 6 6 3;
  Asm.branch a I.Ne 6 14 skip;
  Asm.alui a I.Add 7 7 1;
  Asm.place a skip;
  Asm.alui a I.Add 1 1 1;
  Asm.jump a loop;
  Asm.place a done_;
  Asm.halt a;
  assert_equivalent
    (Program.of_funcs [ func 0 "m" Layout.User (Asm.finish a) ])
    ~start:0

let test_equiv_fault () =
  (* Falling off a function end faults identically. *)
  assert_equivalent (Program.of_funcs [ func 0 "m" Layout.User [| I.Nop |] ]) ~start:0

(* Random-program equivalence: the strongest oracle we have.  Programs are
   built from a restricted but expressive instruction pool with bounded
   loops (a countdown register guarantees termination). *)
let gen_program =
  let open QCheck.Gen in
  let reg = int_range 1 7 in
  let body_insn =
    frequency
      [
        (4, map2 (fun rd v -> I.Limm (rd, v)) reg (int_range 0 1000));
        (6, map3 (fun rd r1 r2 -> I.Alu (I.Add, rd, r1, r2)) reg reg reg);
        (3, map3 (fun rd r1 v -> I.Alui (I.Mul, rd, r1, v)) reg reg (int_range 0 9));
        (3, map2 (fun rd off -> I.Load (rd, 8, off * 8)) reg (int_range 0 63));
        (3, map2 (fun rv off -> I.Store (8, rv, off * 8)) reg (int_range 0 63));
        (1, return I.Fence);
        (1, map2 (fun ra off -> I.Flush (ra, off * 8)) (return 8) (int_range 0 63));
      ]
  in
  let* n = int_range 5 25 in
  let* body = list_repeat n body_insn in
  let* br_reg = reg in
  (* Wrap the random body into a bounded loop with a data-dependent branch. *)
  let a = Asm.create () in
  let loop = Asm.fresh_label a in
  let done_ = Asm.fresh_label a in
  let skip = Asm.fresh_label a in
  Asm.li a 9 0;
  Asm.li a 10 12;
  Asm.li a 8 Layout.user_data_base;
  Asm.li a 14 0;
  Asm.place a loop;
  Asm.branch a I.Ge 9 10 done_;
  List.iter (Asm.emit a) body;
  Asm.alui a I.And 6 br_reg 1;
  Asm.branch a I.Ne 6 14 skip;
  Asm.alui a I.Add 5 5 1;
  Asm.place a skip;
  Asm.alui a I.Add 9 9 1;
  Asm.jump a loop;
  Asm.place a done_;
  Asm.halt a;
  return (Program.of_funcs [ func 0 "rand" Layout.User (Asm.finish a) ])

let equivalence_prop =
  QCheck.Test.make ~name:"OOO pipeline matches the in-order reference" ~count:120
    (QCheck.make gen_program)
    (fun prog ->
      let iss, ooo = run_both prog ~start:0 in
      same_outcome iss ooo
      && (iss.Iss.outcome <> Iss.Halted
         || (iss.Iss.regs = ooo.Pipeline.regs && iss.Iss.steps = ooo.Pipeline.committed)))

(* --- speculation semantics --- *)

let test_transient_load_leaves_cache_state () =
  (* A load on the wrong path of a mispredicted branch must fill the cache
     even though it never commits: the covert channel. *)
  let secret_line = Layout.direct_map_va 4096 in
  let a = Asm.create () in
  let out = Asm.fresh_label a in
  Asm.li a 1 0;
  Asm.li a 2 Layout.user_data_base;
  Asm.load a 3 2 0 (* slow bound: flushed below *);
  Asm.branch a I.Ne 3 1 out (* actually taken: r3=1 *);
  Asm.li a 4 secret_line;
  Asm.load a 5 4 0 (* transient *);
  Asm.place a out;
  Asm.halt a;
  let prog = Program.of_funcs [ func 0 "m" Layout.User (Asm.finish a) ] in
  let mem = Mem.create () in
  Mem.store mem (Layout.phys_key ~asid:1 Layout.user_data_base) 1;
  let ms = Memsys.create mem in
  let pipe = Pipeline.create ms prog in
  (* Train the branch toward not-taken (the transient path). *)
  Mem.store mem (Layout.phys_key ~asid:1 Layout.user_data_base) 0;
  ignore (Pipeline.run pipe ~asid:1 ~start:0);
  Mem.store mem (Layout.phys_key ~asid:1 Layout.user_data_base) 1;
  Memsys.flush_line ms (Layout.phys_key ~asid:1 Layout.user_data_base);
  Memsys.flush_line ms secret_line;
  let r = Pipeline.run pipe ~asid:1 ~start:0 in
  Alcotest.(check bool) "halted" true (r.Pipeline.outcome = Pipeline.Halted);
  check Alcotest.int "transient load never committed" 0 r.Pipeline.regs.(5);
  Alcotest.(check bool) "but its line is cached" true
    (Memsys.would_hit_l1d ms secret_line)

let test_guard_blocks_transient_fill () =
  (* Same setup under a block-everything-speculative guard: no fill. *)
  let secret_line = Layout.direct_map_va 4096 in
  let a = Asm.create () in
  let out = Asm.fresh_label a in
  Asm.li a 1 0;
  Asm.li a 2 Layout.user_data_base;
  Asm.load a 3 2 0;
  Asm.branch a I.Ne 3 1 out;
  Asm.li a 4 secret_line;
  Asm.load a 5 4 0;
  Asm.place a out;
  Asm.halt a;
  let prog = Program.of_funcs [ func 0 "m" Layout.User (Asm.finish a) ] in
  let mem = Mem.create () in
  let ms = Memsys.create mem in
  let pipe = Pipeline.create ms prog in
  Pipeline.set_guard pipe
    {
      Guard.name = "fence-all";
      check =
        (fun q -> if q.Guard.speculative then Guard.Block Guard.Baseline else Guard.Allow);
      notify_vp = None;
      spec_read = None;
      notify_squash = None;
      shadow_btb = false;
    };
  Mem.store mem (Layout.phys_key ~asid:1 Layout.user_data_base) 0;
  ignore (Pipeline.run pipe ~asid:1 ~start:0);
  Mem.store mem (Layout.phys_key ~asid:1 Layout.user_data_base) 1;
  Memsys.flush_line ms (Layout.phys_key ~asid:1 Layout.user_data_base);
  Memsys.flush_line ms secret_line;
  let before = Pipeline.copy_counters (Pipeline.counters pipe) in
  ignore (Pipeline.run pipe ~asid:1 ~start:0);
  let delta = Pipeline.diff_counters (Pipeline.counters pipe) before in
  Alcotest.(check bool) "secret line not cached" false (Memsys.would_hit_l1d ms secret_line);
  Alcotest.(check bool) "a fence fired" true (delta.Pipeline.fences_baseline > 0)

let test_fenced_load_still_commits () =
  (* Blocking delays but never changes architectural results. *)
  let a = Asm.create () in
  Asm.li a 1 (Layout.direct_map_va 0);
  Asm.li a 2 3;
  Asm.li a 3 0;
  let loop = Asm.fresh_label a in
  let done_ = Asm.fresh_label a in
  Asm.place a loop;
  Asm.branch a I.Ge 3 2 done_;
  Asm.load a 4 1 0;
  Asm.alui a I.Add 3 3 1;
  Asm.jump a loop;
  Asm.place a done_;
  Asm.halt a;
  let prog = Program.of_funcs [ func 0 "m" Layout.User (Asm.finish a) ] in
  let mem = Mem.create () in
  Mem.store mem (Layout.direct_map_va 0) 1234;
  let ms = Memsys.create mem in
  let pipe = Pipeline.create ms prog in
  Pipeline.set_guard pipe
    {
      Guard.name = "fence-all";
      check =
        (fun q -> if q.Guard.speculative then Guard.Block Guard.Baseline else Guard.Allow);
      notify_vp = None;
      spec_read = None;
      notify_squash = None;
      shadow_btb = false;
    };
  let r = Pipeline.run pipe ~asid:1 ~start:0 in
  check Alcotest.int "value loaded" 1234 r.Pipeline.regs.(4)

let test_fence_slower_than_unsafe () =
  let build () =
    let a = Asm.create () in
    let loop = Asm.fresh_label a in
    let done_ = Asm.fresh_label a in
    let skip = Asm.fresh_label a in
    Asm.li a 1 0;
    Asm.li a 2 200;
    Asm.li a 3 Layout.user_data_base;
    Asm.li a 14 0;
    Asm.place a loop;
    Asm.branch a I.Ge 1 2 done_;
    Asm.load a 4 3 0;
    Asm.alui a I.And 5 4 7;
    Asm.branch a I.Ne 5 14 skip;
    Asm.alui a I.Add 6 6 1;
    Asm.place a skip;
    Asm.alui a I.Add 1 1 1;
    Asm.jump a loop;
    Asm.place a done_;
    Asm.halt a;
    Program.of_funcs [ func 0 "m" Layout.User (Asm.finish a) ]
  in
  let cycles guard =
    let ms = Memsys.create (Pv_isa.Mem.create ()) in
    let pipe = Pipeline.create ms (build ()) in
    Pipeline.set_guard pipe guard;
    (Pipeline.run pipe ~asid:1 ~start:0).Pipeline.cycles
  in
  let unsafe = cycles Guard.allow_all in
  let fence =
    cycles
      {
        Guard.name = "fence";
        check =
          (fun q -> if q.Guard.speculative then Guard.Block Guard.Baseline else Guard.Allow);
        notify_vp = None;
        spec_read = None;
        notify_squash = None;
        shadow_btb = false;
      }
  in
  Alcotest.(check bool)
    (Printf.sprintf "fence (%d) slower than unsafe (%d)" fence unsafe)
    true
    (fence > unsafe)

let test_store_load_forwarding () =
  (* A load reading an in-flight store's data must see the stored value. *)
  let a = Asm.create () in
  Asm.li a 1 Layout.user_data_base;
  Asm.li a 2 777;
  Asm.store a 1 2 0;
  Asm.load a 3 1 0;
  Asm.store a 1 14 0 (* overwrite with 0 *);
  Asm.load a 4 1 0;
  Asm.halt a;
  let prog = Program.of_funcs [ func 0 "m" Layout.User (Asm.finish a) ] in
  let ms = Memsys.create (Pv_isa.Mem.create ()) in
  let pipe = Pipeline.create ms prog in
  let r = Pipeline.run pipe ~asid:1 ~start:0 in
  check Alcotest.int "forwarded" 777 r.Pipeline.regs.(3);
  check Alcotest.int "youngest store wins" 0 r.Pipeline.regs.(4)

let test_syscall_register_isolation () =
  (* Kernel clobbers must not leak back into user registers. *)
  let user = [| I.Limm (1, 5); I.Limm (2, 7); I.Syscall; I.Alu (I.Add, 3, 1, 2); I.Halt |] in
  let kern = [| I.Limm (1, 1000); I.Limm (2, 1000); I.Limm (3, 1000); I.Sysret |] in
  let prog =
    Program.of_funcs [ func 0 "u" Layout.User user; func 1 "k" Layout.Kernel kern ]
  in
  let ms = Memsys.create (Pv_isa.Mem.create ()) in
  let pipe = Pipeline.create ms prog in
  let hooks =
    {
      Pipeline.on_syscall = (fun _ -> Iss.Redirect (1, []));
      on_sysret = (fun regs -> regs.(15) <- 88; Iss.Skip);
      on_commit = None;
    }
  in
  let r = Pipeline.run ~hooks pipe ~asid:1 ~start:0 in
  check Alcotest.int "user regs restored" 12 r.Pipeline.regs.(3);
  check Alcotest.int "return value delivered" 88 r.Pipeline.regs.(15)

let test_kernel_cycle_accounting () =
  let user = [| I.Syscall; I.Halt |] in
  let kern = Array.append (Array.make 50 I.Nop) [| I.Sysret |] in
  let prog =
    Program.of_funcs [ func 0 "u" Layout.User user; func 1 "k" Layout.Kernel kern ]
  in
  let ms = Memsys.create (Pv_isa.Mem.create ()) in
  let pipe = Pipeline.create ms prog in
  let hooks =
    {
      Pipeline.on_syscall = (fun _ -> Iss.Redirect (1, []));
      on_sysret = (fun _ -> Iss.Skip);
      on_commit = None;
    }
  in
  let before = Pipeline.copy_counters (Pipeline.counters pipe) in
  ignore (Pipeline.run ~hooks pipe ~asid:1 ~start:0);
  let d = Pipeline.diff_counters (Pipeline.counters pipe) before in
  Alcotest.(check bool) "kernel cycles counted" true (d.Pipeline.kernel_cycles > 0);
  Alcotest.(check bool) "not all cycles are kernel" true
    (d.Pipeline.kernel_cycles < d.Pipeline.cycles);
  check Alcotest.int "kernel instructions" 51 d.Pipeline.committed_kernel;
  check Alcotest.int "one syscall" 1 d.Pipeline.syscalls

let test_out_of_fuel () =
  let prog = Program.of_funcs [ func 0 "spin" Layout.User [| I.Jump 0 |] ] in
  let ms = Memsys.create (Pv_isa.Mem.create ()) in
  let pipe = Pipeline.create ms prog in
  let r = Pipeline.run ~fuel:500 pipe ~asid:1 ~start:0 in
  Alcotest.(check bool) "out of fuel" true (r.Pipeline.outcome = Pipeline.Out_of_fuel);
  check Alcotest.int "cycles = fuel" 500 r.Pipeline.cycles

let test_mispredict_counted () =
  (* A data-dependent branch with a random pattern must mispredict. *)
  let a = Asm.create () in
  let loop = Asm.fresh_label a in
  let done_ = Asm.fresh_label a in
  let skip = Asm.fresh_label a in
  Asm.li a 1 0;
  Asm.li a 2 100;
  Asm.li a 7 1;
  Asm.li a 14 0;
  Asm.place a loop;
  Asm.branch a I.Ge 1 2 done_;
  (* xorshift-ish pseudo-random bit *)
  Asm.alui a I.Mul 7 7 1103515245;
  Asm.alui a I.Add 7 7 12345;
  Asm.alui a I.Shr 6 7 16;
  Asm.alui a I.And 6 6 1;
  Asm.branch a I.Ne 6 14 skip;
  Asm.alui a I.Add 5 5 1;
  Asm.place a skip;
  Asm.alui a I.Add 1 1 1;
  Asm.jump a loop;
  Asm.place a done_;
  Asm.halt a;
  let prog = Program.of_funcs [ func 0 "m" Layout.User (Asm.finish a) ] in
  let ms = Memsys.create (Pv_isa.Mem.create ()) in
  let pipe = Pipeline.create ms prog in
  let before = Pipeline.copy_counters (Pipeline.counters pipe) in
  let r = Pipeline.run pipe ~asid:1 ~start:0 in
  let d = Pipeline.diff_counters (Pipeline.counters pipe) before in
  Alcotest.(check bool) "halted" true (r.Pipeline.outcome = Pipeline.Halted);
  Alcotest.(check bool) "mispredicts happen" true (d.Pipeline.branch_mispredicts > 10);
  check Alcotest.int "squashes = mispredicts" d.Pipeline.branch_mispredicts d.Pipeline.squashes

let test_retpoline_costs_cycles () =
  (* A retpolined pipeline must run indirect-call-heavy code slower. *)
  let tva = Layout.func_base Layout.User 1 in
  let a = Asm.create () in
  let loop = Asm.fresh_label a in
  let done_ = Asm.fresh_label a in
  Asm.li a 1 0;
  Asm.li a 2 50;
  Asm.li a 3 tva;
  Asm.place a loop;
  Asm.branch a I.Ge 1 2 done_;
  Asm.icall a 3;
  Asm.alui a I.Add 1 1 1;
  Asm.jump a loop;
  Asm.place a done_;
  Asm.halt a;
  let prog =
    Program.of_funcs
      [
        func 0 "m" Layout.User (Asm.finish a);
        func 1 "callee" Layout.User [| I.Alui (I.Add, 5, 5, 1); I.Ret |];
      ]
  in
  let cycles config =
    let ms = Memsys.create (Pv_isa.Mem.create ()) in
    let pipe = Pipeline.create ~config ms prog in
    (Pipeline.run pipe ~asid:1 ~start:0).Pipeline.cycles
  in
  let plain = cycles Pipeline.default_config in
  let retp = cycles (Perspective.Spot.retpoline Pipeline.default_config) in
  Alcotest.(check bool)
    (Printf.sprintf "retpoline (%d) slower than BTB (%d)" retp plain)
    true
    (retp > plain + 300)

let test_kpti_costs_per_syscall () =
  let user = [| I.Syscall; I.Syscall; I.Syscall; I.Halt |] in
  let kern = [| I.Sysret |] in
  let prog =
    Program.of_funcs [ func 0 "u" Layout.User user; func 1 "k" Layout.Kernel kern ]
  in
  let hooks =
    {
      Pipeline.on_syscall = (fun _ -> Iss.Redirect (1, []));
      on_sysret = (fun _ -> Iss.Skip);
      on_commit = None;
    }
  in
  let cycles config =
    let ms = Memsys.create (Pv_isa.Mem.create ()) in
    let pipe = Pipeline.create ~config ms prog in
    (Pipeline.run ~hooks pipe ~asid:1 ~start:0).Pipeline.cycles
  in
  (* The program makes no indirect call, so retpoline costs nothing here. *)
  let base = Pipeline.default_config in
  let k = Perspective.Spot.kpti_retpoline base in
  let plain = cycles base and kpti = cycles k in
  let per_call =
    (k.Pipeline.kernel_entry_cycles - base.Pipeline.kernel_entry_cycles
    + k.Pipeline.kernel_exit_cycles - base.Pipeline.kernel_exit_cycles)
    * 3
  in
  check Alcotest.int "CR3 switches cost 130 cycles per syscall" 390 per_call;
  check Alcotest.int "exactly the CR3 cost per syscall" (plain + per_call) kpti

let test_ret_window_widens_with_flushed_stack () =
  (* Flushing the return-stack line delays return resolution - the
     Spectre-RSB lever the attacks rely on. *)
  let prog =
    Program.of_funcs
      [
        func 0 "m" Layout.User [| I.Call 1; I.Halt |];
        func 1 "callee" Layout.User [| I.Alui (I.Add, 5, 5, 1); I.Ret |];
      ]
  in
  let cycles ~flush =
    let ms = Memsys.create (Pv_isa.Mem.create ()) in
    let pipe = Pipeline.create ms prog in
    if flush then Memsys.flush_line ms (Pipeline.ret_stack_va ~asid:1 ~depth:1)
    else ignore (Memsys.data_read ms (Pipeline.ret_stack_va ~asid:1 ~depth:1));
    (Pipeline.run pipe ~asid:1 ~start:0).Pipeline.cycles
  in
  let warm = cycles ~flush:false in
  let cold = cycles ~flush:true in
  Alcotest.(check bool)
    (Printf.sprintf "cold return (%d) much slower than warm (%d)" cold warm)
    true
    (cold > warm + 80)

let suite =
  [
    ( "pipeline.equivalence",
      [
        Alcotest.test_case "loop with memory" `Quick test_equiv_loop_with_memory;
        Alcotest.test_case "calls" `Quick test_equiv_calls;
        Alcotest.test_case "indirect calls" `Quick test_equiv_icall;
        Alcotest.test_case "data branches" `Quick test_equiv_data_branches;
        Alcotest.test_case "fault parity" `Quick test_equiv_fault;
        QCheck_alcotest.to_alcotest equivalence_prop;
      ] );
    ( "pipeline.speculation",
      [
        Alcotest.test_case "transient load fills cache" `Quick
          test_transient_load_leaves_cache_state;
        Alcotest.test_case "guard blocks transient fill" `Quick
          test_guard_blocks_transient_fill;
        Alcotest.test_case "fenced load still commits" `Quick test_fenced_load_still_commits;
        Alcotest.test_case "fence costs cycles" `Quick test_fence_slower_than_unsafe;
        Alcotest.test_case "mispredicts counted" `Quick test_mispredict_counted;
      ] );
    ( "pipeline.mechanics",
      [
        Alcotest.test_case "store-to-load forwarding" `Quick test_store_load_forwarding;
        Alcotest.test_case "syscall register isolation" `Quick
          test_syscall_register_isolation;
        Alcotest.test_case "kernel cycle accounting" `Quick test_kernel_cycle_accounting;
        Alcotest.test_case "fuel exhaustion" `Quick test_out_of_fuel;
        Alcotest.test_case "retpoline cost" `Quick test_retpoline_costs_cycles;
        Alcotest.test_case "KPTI cost" `Quick test_kpti_costs_per_syscall;
        Alcotest.test_case "return window widening" `Quick
          test_ret_window_widens_with_flushed_stack;
      ] );
  ]
