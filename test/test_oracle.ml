(* Differential oracle: seeded random programs run through the in-order
   reference ISS and the out-of-order pipeline under UNSAFE must produce the
   same architectural *commit stream* — not just the same final state.  The
   ISS's per-instruction hook and the pipeline's commit hook both observe
   (fid, idx, insn) in architectural order, so any reorder, double-commit or
   dropped squash in the pipeline shows up as a stream divergence. *)

module I = Pv_isa.Insn
module Layout = Pv_isa.Layout
module Mem = Pv_isa.Mem
module Program = Pv_isa.Program
module Asm = Pv_isa.Asm
module Iss = Pv_isa.Iss
module Memsys = Pv_uarch.Memsys
module Pipeline = Pv_uarch.Pipeline
module Rng = Pv_util.Rng

let check = Alcotest.check

let func fid name space body = { Program.fid; name; space; body }

(* A random body instruction from the same pool the pipeline QCheck property
   uses, but drawn from our own SplitMix64 stream so the whole test is one
   seed.  Registers 8..10 and 14 are reserved for the loop harness. *)
let gen_insn rng =
  let reg () = Rng.in_range rng 1 7 in
  match Rng.int rng 23 with
  | 0 | 1 | 2 | 3 -> I.Limm (reg (), Rng.int rng 1000)
  | 4 | 5 | 6 ->
    I.Alu (Rng.choose rng [| I.Add; I.Sub; I.Mul; I.And; I.Or; I.Xor |], reg (), reg (), reg ())
  | 7 | 8 | 9 ->
    I.Alui (Rng.choose rng [| I.Add; I.Mul; I.And; I.Shr |], reg (), reg (), Rng.int rng 64)
  | 10 | 11 | 12 -> I.Load (reg (), 8, Rng.int rng 64 * 8)
  | 13 | 14 | 15 -> I.Store (8, reg (), Rng.int rng 64 * 8)
  | 16 -> I.Fence
  | 17 -> I.Flush (8, Rng.int rng 64 * 8)
  (* Addresses computed from data: the base register may hold an in-flight
     load's value (STT taint) or a negative number. *)
  | 18 -> I.Load (reg (), reg (), Rng.int rng 64 * 8)
  | 19 -> I.Store (reg (), reg (), Rng.int rng 64 * 8)
  | _ -> I.Nop

(* Wrap a random body in a bounded countdown loop with a data-dependent
   branch (misprediction traffic), optionally calling a second random
   function each iteration. *)
let gen_program rng =
  let n = Rng.in_range rng 5 25 in
  let body = List.init n (fun _ -> gen_insn rng) in
  let with_call = Rng.bool rng in
  let br_reg = Rng.in_range rng 1 7 in
  let a = Asm.create () in
  let loop = Asm.fresh_label a in
  let done_ = Asm.fresh_label a in
  let skip = Asm.fresh_label a in
  Asm.li a 9 0;
  Asm.li a 10 (Rng.in_range rng 8 16);
  Asm.li a 8 Layout.user_data_base;
  Asm.li a 14 0;
  Asm.place a loop;
  Asm.branch a I.Ge 9 10 done_;
  List.iter (Asm.emit a) body;
  if with_call then Asm.call a 1;
  Asm.alui a I.And 6 br_reg 1;
  Asm.branch a I.Ne 6 14 skip;
  Asm.alui a I.Add 5 5 1;
  Asm.place a skip;
  Asm.alui a I.Add 9 9 1;
  Asm.jump a loop;
  Asm.place a done_;
  Asm.halt a;
  let main = func 0 "rand" Layout.User (Asm.finish a) in
  let funcs =
    if with_call then begin
      let m = Rng.in_range rng 2 6 in
      let cb = Array.init m (fun _ -> gen_insn rng) in
      [ main; func 1 "callee" Layout.User (Array.append cb [| I.Ret |]) ]
    end
    else [ main ]
  in
  Program.of_funcs funcs

(* A second generator aimed at the pipeline's wakeup paths rather than at
   the instruction mix.  Its loop body mixes [gen_insn] with blocks of:

   - chains of dependent loads through pointer words set up before the loop;
   - fences between loads and stores;
   - a store whose address comes from a load, followed by younger loads of
     the same word (one through the loaded pointer, one through r8), so loads
     wait on an unknown store address and then forward;
   - an indirect call through a two-entry table in memory whose target flips
     from one callee to the other at iteration [flip] (BTB mispredicts, and
     squashes while consumers wait on surviving producers);
   - a call into a chain of [depth] > 16 nested functions, deeper than the
     RAS, so returns past its capacity mispredict.

   Data words 0..63 are [gen_insn]'s; words 64..67 hold pointers into them.
   The call table sits 1 MiB above the data base, out of reach of every
   store.  r11 holds [flip], r12/r13 the table slot, and 8..10 and 14 are the
   loop harness as in [gen_program]. *)
let gen_program_wide rng =
  let data_word k = Layout.user_data_base + (8 * k) in
  let table_off = 0x10_0000 in
  let reg () = Rng.in_range rng 1 7 in
  let ptr_word () = 64 + Rng.int rng 4 in
  let ptr_targets = Array.init 4 (fun _ -> Rng.int rng 64) in
  let depth = Rng.in_range rng 17 22 in
  let chain_fid k = 3 + k in
  let a = Asm.create () in
  let loop = Asm.fresh_label a in
  let done_ = Asm.fresh_label a in
  Asm.li a 9 0;
  Asm.li a 10 (Rng.in_range rng 8 16);
  Asm.li a 8 Layout.user_data_base;
  Asm.li a 14 0;
  Asm.li a 13 0;
  Asm.li a 11 (Rng.in_range rng 2 7);
  Array.iteri
    (fun j k ->
      Asm.li a 1 (data_word k);
      Asm.store a 8 1 (8 * (64 + j)))
    ptr_targets;
  Asm.li a 1 (Layout.insn_va Layout.User 1 0);
  Asm.store a 8 1 table_off;
  Asm.li a 1 (Layout.insn_va Layout.User 2 0);
  Asm.store a 8 1 (table_off + 8);
  Asm.place a loop;
  Asm.branch a I.Ge 9 10 done_;
  let block () =
    match Rng.int rng 6 with
    | 0 ->
      let r = ref (reg ()) in
      Asm.load a !r 8 (8 * ptr_word ());
      for _ = 1 to Rng.in_range rng 1 3 do
        let d = reg () in
        Asm.load a d !r (8 * Rng.int rng 4);
        r := d
      done
    | 1 ->
      Asm.load a (reg ()) 8 (8 * Rng.int rng 64);
      Asm.fence a;
      Asm.store a 8 (reg ()) (8 * Rng.int rng 64);
      if Rng.bool rng then Asm.fence a
    | 2 ->
      let j = Rng.int rng 4 in
      let off = 8 * Rng.int rng 4 in
      let p = Rng.in_range rng 1 7 in
      Asm.load a p 8 (8 * (64 + j));
      Asm.store a p (reg ()) off;
      Asm.load a (reg ()) p off;
      Asm.load a (reg ()) 8 ((8 * ptr_targets.(j)) + off)
    | 3 ->
      let same = Asm.fresh_label a in
      Asm.branch a I.Ne 9 11 same;
      Asm.li a 13 8;
      Asm.place a same;
      Asm.alu a I.Add 12 8 13;
      Asm.load a 12 12 table_off;
      Asm.icall a 12
    | 4 -> Asm.call a (chain_fid 0)
    | _ -> Asm.emit a (gen_insn rng)
  in
  for _ = 1 to Rng.in_range rng 4 10 do
    block ()
  done;
  Asm.alui a I.Add 9 9 1;
  Asm.jump a loop;
  Asm.place a done_;
  Asm.halt a;
  let leaf fid name =
    let body = Array.init (Rng.in_range rng 2 6) (fun _ -> gen_insn rng) in
    func fid name Layout.User (Array.append body [| I.Ret |])
  in
  let main = func 0 "wide" Layout.User (Asm.finish a) in
  let callees = [ leaf 1 "icall_a"; leaf 2 "icall_b" ] in
  let chain =
    List.init depth (fun k ->
        let pre = Array.init (Rng.in_range rng 0 3) (fun _ -> gen_insn rng) in
        let post = Array.init (Rng.in_range rng 0 2) (fun _ -> gen_insn rng) in
        let call = if k + 1 < depth then [| I.Call (chain_fid (k + 1)) |] else [||] in
        func (chain_fid k) (Printf.sprintf "nest%d" k) Layout.User
          (Array.concat [ pre; call; post; [| I.Ret |] ]))
  in
  Program.of_funcs ((main :: callees) @ chain)

(* One architectural event as observed at retirement. *)
let event_to_string (fid, idx) = Printf.sprintf "%d:%d" fid idx

let run_iss prog =
  let stream = ref [] in
  let mem = Mem.create () in
  let hooks =
    { Iss.null_hooks with Iss.on_insn = Some (fun fid idx _ -> stream := (fid, idx) :: !stream) }
  in
  let r = Iss.run ~hooks ~asid:1 ~mem prog ~start:0 in
  (r, List.rev !stream, mem)

let run_ooo prog =
  let stream = ref [] in
  let mem = Mem.create () in
  let ms = Memsys.create mem in
  let pipe = Pipeline.create ms prog in
  let hooks =
    {
      Pipeline.null_hooks with
      Pipeline.on_commit = Some (fun fid idx _ -> stream := (fid, idx) :: !stream);
    }
  in
  let r = Pipeline.run ~hooks pipe ~asid:1 ~start:0 in
  (r, List.rev !stream, mem)

let mem_words mem =
  List.init 64 (fun i -> Mem.load mem (Layout.phys_key ~asid:1 (Layout.user_data_base + (8 * i))))

let assert_same_commit_stream ~seed prog =
  let iss, iss_stream, iss_mem = run_iss prog in
  let ooo, ooo_stream, ooo_mem = run_ooo prog in
  let label fmt = Printf.sprintf ("seed %d: " ^^ fmt) seed in
  Alcotest.(check bool)
    (label "both halted")
    true
    (iss.Iss.outcome = Iss.Halted && ooo.Pipeline.outcome = Pipeline.Halted);
  check
    Alcotest.(list string)
    (label "commit streams identical")
    (List.map event_to_string iss_stream)
    (List.map event_to_string ooo_stream);
  check Alcotest.(array int) (label "final registers") iss.Iss.regs ooo.Pipeline.regs;
  check Alcotest.(list int) (label "memory words") (mem_words iss_mem) (mem_words ooo_mem)

let test_random_programs () =
  (* 60 seeded programs; any divergence names its seed for replay. *)
  for seed = 1 to 60 do
    let rng = Rng.create (0x0C0FFEE + seed) in
    assert_same_commit_stream ~seed (gen_program rng)
  done

let test_stream_matches_committed_count () =
  (* The commit stream length is the committed-instruction counter. *)
  let rng = Rng.create 99 in
  let prog = gen_program rng in
  let ooo, stream, _ = run_ooo prog in
  check Alcotest.int "stream length = committed" ooo.Pipeline.committed (List.length stream);
  let iss, istream, _ = run_iss prog in
  check Alcotest.int "iss stream length = steps" iss.Iss.steps (List.length istream)

let test_squashes_never_reach_stream () =
  (* Heavy misprediction traffic: wrong-path instructions must never appear
     in the commit stream, so the stream is squash-count independent. *)
  let a = Asm.create () in
  let loop = Asm.fresh_label a in
  let done_ = Asm.fresh_label a in
  let skip = Asm.fresh_label a in
  Asm.li a 1 0;
  Asm.li a 2 120;
  Asm.li a 7 1;
  Asm.li a 14 0;
  Asm.place a loop;
  Asm.branch a I.Ge 1 2 done_;
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
  let iss, iss_stream, _ = run_iss prog in
  let ooo, ooo_stream, _ = run_ooo prog in
  Alcotest.(check bool) "halted" true (ooo.Pipeline.outcome = Pipeline.Halted);
  check
    Alcotest.(list string)
    "streams identical despite squashes"
    (List.map event_to_string iss_stream)
    (List.map event_to_string ooo_stream);
  check Alcotest.(array int) "registers" iss.Iss.regs ooo.Pipeline.regs

let suite =
  [
    ( "oracle.differential",
      [
        Alcotest.test_case "60 seeded random programs" `Slow test_random_programs;
        Alcotest.test_case "stream length = committed count" `Quick
          test_stream_matches_committed_count;
        Alcotest.test_case "squashed work never commits" `Quick
          test_squashes_never_reach_stream;
      ] );
  ]
