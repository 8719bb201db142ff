(* Tests for Pv_isa: instruction semantics, address layout, memory,
   programs, the assembler and the reference interpreter. *)

module I = Pv_isa.Insn
module Layout = Pv_isa.Layout
module Mem = Pv_isa.Mem
module Program = Pv_isa.Program
module Asm = Pv_isa.Asm
module Iss = Pv_isa.Iss

let check = Alcotest.check

let test_eval_binop () =
  check Alcotest.int "add" 7 (I.eval_binop I.Add 3 4);
  check Alcotest.int "sub" (-1) (I.eval_binop I.Sub 3 4);
  check Alcotest.int "and" 2 (I.eval_binop I.And 3 6);
  check Alcotest.int "or" 7 (I.eval_binop I.Or 3 6);
  check Alcotest.int "xor" 5 (I.eval_binop I.Xor 3 6);
  check Alcotest.int "shl" 12 (I.eval_binop I.Shl 3 2);
  check Alcotest.int "shr" 1 (I.eval_binop I.Shr 6 2);
  check Alcotest.int "mul" 12 (I.eval_binop I.Mul 3 4)

let test_eval_cond () =
  Alcotest.(check bool) "eq" true (I.eval_cond I.Eq 3 3);
  Alcotest.(check bool) "ne" true (I.eval_cond I.Ne 3 4);
  Alcotest.(check bool) "lt" true (I.eval_cond I.Lt 3 4);
  Alcotest.(check bool) "ge" true (I.eval_cond I.Ge 4 4)

let test_classifiers () =
  Alcotest.(check bool) "load" true (I.is_load (I.Load (0, 1, 0)));
  Alcotest.(check bool) "store" true (I.is_store (I.Store (0, 1, 0)));
  Alcotest.(check bool) "store is no load" false (I.is_load (I.Store (0, 1, 0)));
  Alcotest.(check bool) "load is no store" false (I.is_store (I.Load (0, 1, 0)))

let test_layout_roundtrip () =
  List.iter
    (fun (space, fid, idx) ->
      let va = Layout.insn_va space fid idx in
      match Layout.decode_code_va va with
      | Some (s, f, i) ->
        Alcotest.(check bool) "space" true (s = space);
        check Alcotest.int "fid" fid f;
        check Alcotest.int "idx" idx i
      | None -> Alcotest.fail "decode failed")
    [
      (Layout.Kernel, 0, 0);
      (Layout.Kernel, 123, 1023);
      (Layout.User, 0, 0);
      (Layout.User, 999, 511);
    ]

let test_layout_directmap () =
  let pa = 12345 * 4096 in
  let va = Layout.direct_map_va pa in
  check Alcotest.(option int) "inverse" (Some pa) (Layout.pa_of_direct_map va);
  check Alcotest.(option int) "non-dm" None (Layout.pa_of_direct_map Layout.user_data_base)

(* A kernel-half VA has one physical key in every address space. *)
let kernel_half va = Layout.phys_key ~asid:1 va = Layout.phys_key ~asid:2 va

let test_layout_spaces () =
  Alcotest.(check bool) "kernel code is kernel" true (kernel_half (Layout.insn_va Layout.Kernel 0 0));
  Alcotest.(check bool) "user data is user" false (kernel_half Layout.user_data_base);
  Alcotest.(check bool) "direct map is kernel" true (kernel_half (Layout.direct_map_va 0))

let test_phys_key_asid () =
  let uva = Layout.user_data_base + 64 in
  Alcotest.(check bool) "user keys differ per asid" true
    (Layout.phys_key ~asid:1 uva <> Layout.phys_key ~asid:2 uva);
  let kva = Layout.direct_map_va 4096 in
  check Alcotest.int "kernel keys shared" (Layout.phys_key ~asid:1 kva)
    (Layout.phys_key ~asid:2 kva)

let test_phys_key_no_collision () =
  (* User keys must never collide with kernel-half keys. *)
  let kva = Layout.insn_va Layout.Kernel 0 0 in
  for asid = 0 to 64 do
    let k = Layout.phys_key ~asid (Layout.user_data_base + (asid * 8)) in
    Alcotest.(check bool) "no kernel collision" true (k <> kva)
  done

let test_mem () =
  let m = Mem.create () in
  check Alcotest.int "default zero" 0 (Mem.load m 4096);
  Mem.store m 4096 42;
  check Alcotest.int "stored" 42 (Mem.load m 4096);
  check Alcotest.int "word granular" 42 (Mem.load m 4100);
  Mem.store m 4104 7;
  check Alcotest.int "distinct words" 42 (Mem.load m 4096);
  check Alcotest.int "its own word" 7 (Mem.load m 4104);
  Mem.clear m;
  check Alcotest.int "cleared" 0 (Mem.load m 4096)

let test_asm_labels () =
  let a = Asm.create () in
  let l = Asm.fresh_label a in
  Asm.li a 1 0;
  Asm.branch a I.Eq 1 1 l;
  Asm.li a 2 5;
  Asm.place a l;
  Asm.halt a;
  let body = Asm.finish a in
  check Alcotest.int "length" 4 (Array.length body);
  (match body.(1) with
  | I.Branch (I.Eq, 1, 1, 3) -> ()
  | _ -> Alcotest.fail "branch target not resolved to 3");
  ()

let test_asm_unplaced_label () =
  let a = Asm.create () in
  let l = Asm.fresh_label a in
  Asm.jump a l;
  Alcotest.check_raises "unplaced" (Invalid_argument "Asm.finish: unplaced label")
    (fun () -> ignore (Asm.finish a))

let test_asm_double_place () =
  let a = Asm.create () in
  let l = Asm.fresh_label a in
  Asm.place a l;
  Alcotest.check_raises "double place" (Invalid_argument "Asm.place: label placed twice")
    (fun () -> Asm.place a l)

let func fid name space body = { Program.fid; name; space; body }

let test_program_validation () =
  let ok = Program.of_funcs [ func 0 "a" Layout.User [| I.Halt |] ] in
  check Alcotest.int "one func" 1 (Program.length ok);
  Alcotest.(check bool) "bad branch rejected" true
    (try
       ignore (Program.of_funcs [ func 0 "a" Layout.User [| I.Jump 5 |] ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad callee rejected" true
    (try
       ignore (Program.of_funcs [ func 0 "a" Layout.User [| I.Call 3 |] ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "sparse fids rejected" true
    (try
       ignore (Program.of_funcs [ { (func 0 "a" Layout.User [| I.Halt |]) with Program.fid = 1 } ]);
       false
     with Invalid_argument _ -> true)

let test_program_fetch () =
  let p = Program.of_funcs [ func 0 "a" Layout.User [| I.Nop; I.Halt |] ] in
  Alcotest.(check bool) "in range" true (Program.fetch p 0 1 = Some I.Halt);
  Alcotest.(check bool) "past end" true (Program.fetch p 0 2 = None);
  Alcotest.(check bool) "bad fid" true (Program.fetch p 1 0 = None)

(* --- reference interpreter --- *)

let run_simple body =
  let p = Program.of_funcs [ func 0 "main" Layout.User body ] in
  Iss.run ~asid:1 ~mem:(Mem.create ()) p ~start:0

let test_iss_arith () =
  let r =
    run_simple
      [| I.Limm (1, 6); I.Limm (2, 7); I.Alu (I.Mul, 3, 1, 2); I.Halt |]
  in
  Alcotest.(check bool) "halted" true (r.Iss.outcome = Iss.Halted);
  check Alcotest.int "6*7" 42 r.Iss.regs.(3)

let test_iss_loop () =
  (* sum 0..9 *)
  let a = Asm.create () in
  let loop = Asm.fresh_label a in
  let done_ = Asm.fresh_label a in
  Asm.li a 1 0;
  Asm.li a 2 0;
  Asm.li a 3 10;
  Asm.place a loop;
  Asm.branch a I.Ge 1 3 done_;
  Asm.alu a I.Add 2 2 1;
  Asm.alui a I.Add 1 1 1;
  Asm.jump a loop;
  Asm.place a done_;
  Asm.halt a;
  let r = run_simple (Asm.finish a) in
  check Alcotest.int "sum" 45 r.Iss.regs.(2)

let test_iss_memory () =
  let r =
    run_simple
      [|
        I.Limm (1, Layout.user_data_base);
        I.Limm (2, 99);
        I.Store (1, 2, 8);
        I.Load (3, 1, 8);
        I.Halt;
      |]
  in
  check Alcotest.int "roundtrip" 99 r.Iss.regs.(3)

let test_iss_call_ret () =
  let main = [| I.Limm (1, 1); I.Call 1; I.Alui (I.Add, 1, 1, 100); I.Halt |] in
  let callee = [| I.Alui (I.Add, 1, 1, 10); I.Ret |] in
  let p =
    Program.of_funcs [ func 0 "main" Layout.User main; func 1 "callee" Layout.User callee ]
  in
  let r = Iss.run ~asid:1 ~mem:(Mem.create ()) p ~start:0 in
  check Alcotest.int "1+10+100" 111 r.Iss.regs.(1)

let test_iss_icall () =
  let target_va = Layout.func_base Layout.User 1 in
  let main = [| I.Limm (1, target_va); I.Icall 1; I.Halt |] in
  let callee = [| I.Limm (2, 55); I.Ret |] in
  let p =
    Program.of_funcs [ func 0 "main" Layout.User main; func 1 "callee" Layout.User callee ]
  in
  let r = Iss.run ~asid:1 ~mem:(Mem.create ()) p ~start:0 in
  check Alcotest.int "icall result" 55 r.Iss.regs.(2)

let test_iss_icall_invalid () =
  let r = run_simple [| I.Limm (1, 12345); I.Icall 1; I.Halt |] in
  Alcotest.(check bool) "faults" true
    (match r.Iss.outcome with Iss.Fault _ -> true | _ -> false)

let test_iss_ret_underflow () =
  let r = run_simple [| I.Ret |] in
  Alcotest.(check bool) "faults" true
    (match r.Iss.outcome with Iss.Fault _ -> true | _ -> false)

let test_iss_fuel () =
  let r =
    Iss.run ~fuel:10 ~asid:1 ~mem:(Mem.create ())
      (Program.of_funcs [ func 0 "spin" Layout.User [| I.Jump 0 |] ])
      ~start:0
  in
  Alcotest.(check bool) "out of fuel" true (r.Iss.outcome = Iss.Out_of_fuel);
  check Alcotest.int "steps" 10 r.Iss.steps

let test_iss_syscall_redirect_and_save () =
  (* Kernel clobbers registers; Sysret must restore them (except the hook's
     return-value assignment). *)
  let user =
    [| I.Limm (1, 5); I.Limm (2, 6); I.Syscall; I.Alu (I.Add, 3, 1, 2); I.Halt |]
  in
  let kernel = [| I.Limm (1, 999); I.Limm (2, 999); I.Sysret |] in
  let p =
    Program.of_funcs
      [ func 0 "user" Layout.User user; func 1 "k" Layout.Kernel kernel ]
  in
  let hooks =
    {
      Iss.on_syscall = (fun _ -> Iss.Redirect (1, []));
      on_sysret = (fun regs -> regs.(15) <- 77; Iss.Skip);
      on_insn = None;
    }
  in
  let r = Iss.run ~hooks ~asid:1 ~mem:(Mem.create ()) p ~start:0 in
  check Alcotest.int "restored regs" 11 r.Iss.regs.(3);
  check Alcotest.int "return value" 77 r.Iss.regs.(15)

let test_iss_trace_hook () =
  let seen = ref [] in
  let hooks =
    {
      Iss.on_syscall = (fun _ -> Iss.Skip);
      on_sysret = (fun _ -> Iss.Skip);
      on_insn = Some (fun fid idx _ -> seen := (fid, idx) :: !seen);
    }
  in
  let p = Program.of_funcs [ func 0 "m" Layout.User [| I.Nop; I.Halt |] ] in
  ignore (Iss.run ~hooks ~asid:1 ~mem:(Mem.create ()) p ~start:0);
  check Alcotest.int "two instructions observed" 2 (List.length !seen)

let suite =
  [
    ( "isa.insn",
      [
        Alcotest.test_case "binops" `Quick test_eval_binop;
        Alcotest.test_case "conds" `Quick test_eval_cond;
        Alcotest.test_case "classifiers" `Quick test_classifiers;
      ] );
    ( "isa.layout",
      [
        Alcotest.test_case "va roundtrip" `Quick test_layout_roundtrip;
        Alcotest.test_case "direct map" `Quick test_layout_directmap;
        Alcotest.test_case "spaces" `Quick test_layout_spaces;
        Alcotest.test_case "phys keys per asid" `Quick test_phys_key_asid;
        Alcotest.test_case "no key collisions" `Quick test_phys_key_no_collision;
      ] );
    ("isa.mem", [ Alcotest.test_case "word store/load" `Quick test_mem ]);
    ( "isa.asm",
      [
        Alcotest.test_case "label resolution" `Quick test_asm_labels;
        Alcotest.test_case "unplaced label" `Quick test_asm_unplaced_label;
        Alcotest.test_case "double place" `Quick test_asm_double_place;
      ] );
    ( "isa.program",
      [
        Alcotest.test_case "validation" `Quick test_program_validation;
        Alcotest.test_case "fetch" `Quick test_program_fetch;
      ] );
    ( "isa.iss",
      [
        Alcotest.test_case "arithmetic" `Quick test_iss_arith;
        Alcotest.test_case "loop" `Quick test_iss_loop;
        Alcotest.test_case "memory" `Quick test_iss_memory;
        Alcotest.test_case "call/ret" `Quick test_iss_call_ret;
        Alcotest.test_case "icall" `Quick test_iss_icall;
        Alcotest.test_case "icall invalid" `Quick test_iss_icall_invalid;
        Alcotest.test_case "ret underflow" `Quick test_iss_ret_underflow;
        Alcotest.test_case "fuel" `Quick test_iss_fuel;
        Alcotest.test_case "syscall save/restore" `Quick test_iss_syscall_redirect_and_save;
        Alcotest.test_case "trace hook" `Quick test_iss_trace_hook;
      ] );
  ]
