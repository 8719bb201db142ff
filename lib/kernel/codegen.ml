module I = Pv_isa.Insn
module Asm = Pv_isa.Asm
module Mem = Pv_isa.Mem
module Rng = Pv_util.Rng
module Layout = Pv_isa.Layout

type loop_spec = {
  trips_shift : int;
  min_trips : int;
  unroll : int;
  stride : int;
  dep_chain : bool;
  shared_every : int;
  unknown_every : int;
  store_every : int;
  branch_mask : int;
  alu_pad : int;
}

type shape =
  | Loop of loop_spec
  | Leaf of { loads : int; stores : int; alu : int; shared : bool }
  | Dispatch of { slots : int; post : loop_spec }

(* In-page masks keeping generated addresses inside one 4 KiB page. *)
let chase_mask = 4032 (* line-aligned offsets, leaves room for unrolled loads *)

let shared_mask = 1984

let unknown_mask = 4032

let check_pow2 name v =
  if v <> 0 && v land (v - 1) <> 0 then
    invalid_arg (Printf.sprintf "Codegen: %s must be 0 or a power of two" name)

let emit_loop a spec =
  check_pow2 "shared_every" spec.shared_every;
  check_pow2 "unknown_every" spec.unknown_every;
  check_pow2 "store_every" spec.store_every;
  let loop = Asm.fresh_label a in
  let done_ = Asm.fresh_label a in
  Asm.li a 14 0;
  Asm.li a 15 0;
  (* r1 <- max (r11 lsr trips_shift) min_trips *)
  Asm.alui a I.Shr 1 11 spec.trips_shift;
  Asm.li a 2 spec.min_trips;
  let trips_ok = Asm.fresh_label a in
  Asm.branch a I.Ge 1 2 trips_ok;
  Asm.alu a I.Add 1 2 14;
  Asm.place a trips_ok;
  Asm.li a 2 0;
  Asm.place a loop;
  Asm.branch a I.Ge 2 1 done_;
  Asm.alui a I.Mul 3 2 spec.stride;
  Asm.alui a I.And 3 3 chase_mask;
  Asm.alu a I.Add 4 8 3;
  for j = 0 to spec.unroll - 1 do
    let off = if spec.dep_chain then 0 else j * 8 in
    Asm.load a 5 4 off;
    Asm.alu a I.Add 15 15 5;
    if spec.dep_chain then begin
      Asm.alui a I.And 6 5 chase_mask;
      Asm.alu a I.Add 4 8 6
    end;
    if spec.branch_mask > 0 && j = spec.unroll - 1 then begin
      let skip = Asm.fresh_label a in
      Asm.alui a I.And 6 5 spec.branch_mask;
      Asm.branch a I.Ne 6 14 skip;
      Asm.alui a I.Add 15 15 1;
      Asm.place a skip
    end;
    for k = 1 to spec.alu_pad do
      Asm.alui a I.Add 7 15 k
    done
  done;
  if spec.shared_every > 0 then begin
    let no = Asm.fresh_label a in
    Asm.alui a I.And 6 2 (spec.shared_every - 1);
    Asm.branch a I.Ne 6 14 no;
    Asm.alui a I.And 5 3 shared_mask;
    Asm.alu a I.Add 5 9 5;
    Asm.load a 5 5 0;
    Asm.alu a I.Add 15 15 5;
    Asm.place a no
  end;
  if spec.unknown_every > 0 then begin
    let no = Asm.fresh_label a in
    Asm.alui a I.And 6 2 (spec.unknown_every - 1);
    Asm.branch a I.Ne 6 14 no;
    Asm.alui a I.And 5 3 unknown_mask;
    Asm.alu a I.Add 5 10 5;
    Asm.load a 5 5 0;
    Asm.alu a I.Add 15 15 5;
    Asm.place a no
  end;
  if spec.store_every > 0 then begin
    let no = Asm.fresh_label a in
    Asm.alui a I.And 6 2 (spec.store_every - 1);
    Asm.branch a I.Ne 6 14 no;
    Asm.store a 4 15 0;
    Asm.place a no
  end;
  Asm.alui a I.Add 2 2 1;
  Asm.jump a loop;
  Asm.place a done_

let emit_leaf a ~loads ~stores ~alu ~shared =
  let base = if shared then 9 else 8 in
  Asm.li a 15 0;
  for j = 0 to loads - 1 do
    Asm.load a 5 base (j * 64 mod 1024);
    Asm.alu a I.Add 15 15 5
  done;
  for k = 1 to alu do
    Asm.alui a I.Add 7 15 k
  done;
  for j = 0 to stores - 1 do
    Asm.store a 8 15 ((j * 64 mod 1024) + 2048)
  done

let emit_dispatch a ~slots =
  check_pow2 "slots" slots;
  Asm.alui a I.And 5 12 (slots - 1);
  Asm.alui a I.Mul 5 5 8;
  Asm.alu a I.Add 5 13 5;
  Asm.load a 14 5 0;
  Asm.icall a 14

let gen_body shape ~tail =
  let a = Asm.create () in
  (match shape with
  | Loop spec -> emit_loop a spec
  | Leaf { loads; stores; alu; shared } -> emit_leaf a ~loads ~stores ~alu ~shared
  | Dispatch { slots; post } ->
    emit_dispatch a ~slots;
    emit_loop a post);
  (match tail with `Ret -> Asm.ret a | `Sysret -> Asm.sysret a);
  Asm.finish a

let gen_entry ~callees =
  let a = Asm.create () in
  Asm.alui a I.Add 7 11 0;
  List.iter (fun fid -> Asm.call a fid) callees;
  Asm.sysret a;
  Asm.finish a

let seed_page mem rng base =
  for i = 0 to (Layout.page_bytes / 8) - 1 do
    Mem.store mem (base + (i * 8)) (Rng.int rng Layout.page_bytes)
  done
