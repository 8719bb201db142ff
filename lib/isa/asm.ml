type label = int

type item =
  | Fixed of Insn.t
  | Br of Insn.cond * Insn.reg * Insn.reg * label
  | Jmp of label

type t = {
  mutable items : item list; (* reversed *)
  mutable count : int;
  mutable next_label : int;
  placed : (label, int) Hashtbl.t;
}

let create () = { items = []; count = 0; next_label = 0; placed = Hashtbl.create 8 }

let fresh_label t =
  let l = t.next_label in
  t.next_label <- l + 1;
  l

let place t l =
  if Hashtbl.mem t.placed l then invalid_arg "Asm.place: label placed twice";
  Hashtbl.replace t.placed l t.count

let push t item =
  t.items <- item :: t.items;
  t.count <- t.count + 1

let emit t i = push t (Fixed i)

let li t rd v = emit t (Insn.Limm (rd, v))
let alu t op rd r1 r2 = emit t (Insn.Alu (op, rd, r1, r2))
let alui t op rd r1 v = emit t (Insn.Alui (op, rd, r1, v))
let load t rd ra off = emit t (Insn.Load (rd, ra, off))
let store t ra rv off = emit t (Insn.Store (ra, rv, off))
let branch t c r1 r2 l = push t (Br (c, r1, r2, l))
let jump t l = push t (Jmp l)
let call t fid = emit t (Insn.Call fid)
let icall t r = emit t (Insn.Icall r)
let ret t = emit t Insn.Ret
let syscall t = emit t Insn.Syscall
let sysret t = emit t Insn.Sysret
let halt t = emit t Insn.Halt

let finish t =
  if t.count > Layout.max_insns_per_func then
    invalid_arg "Asm.finish: body exceeds one code page";
  let resolve l =
    match Hashtbl.find_opt t.placed l with
    | Some pos -> pos
    | None -> invalid_arg "Asm.finish: unplaced label"
  in
  let arr = Array.make t.count Insn.Nop in
  List.iteri
    (fun rev_i item ->
      let i = t.count - 1 - rev_i in
      arr.(i) <-
        (match item with
        | Fixed insn -> insn
        | Br (c, r1, r2, l) -> Insn.Branch (c, r1, r2, resolve l)
        | Jmp l -> Insn.Jump (resolve l)))
    t.items;
  arr
