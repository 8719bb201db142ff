type func = {
  fid : int;
  name : string;
  space : Layout.space;
  body : Insn.t array;
}

type t = { funcs : func array }

let check_func nfuncs f =
  let n = Array.length f.body in
  if n > Layout.max_insns_per_func then
    Error (Printf.sprintf "function %s: %d instructions exceed page" f.name n)
  else
    let bad = ref None in
    let target_ok t = t >= 0 && t < n in
    Array.iteri
      (fun i insn ->
        if !bad = None then
          match insn with
          | Insn.Branch (_, _, _, t) | Insn.Jump t ->
            if not (target_ok t) then
              bad := Some (Printf.sprintf "%s@%d: target %d out of range" f.name i t)
          | Insn.Call fid ->
            if fid < 0 || fid >= nfuncs then
              bad := Some (Printf.sprintf "%s@%d: callee f%d out of range" f.name i fid)
          | Insn.Nop | Insn.Limm _ | Insn.Alu _ | Insn.Alui _ | Insn.Load _
          | Insn.Store _ | Insn.Icall _ | Insn.Ret | Insn.Fence | Insn.Flush _
          | Insn.Syscall | Insn.Sysret | Insn.Halt ->
            ())
      f.body;
    match !bad with None -> Ok () | Some msg -> Error msg

let validate t =
  let n = Array.length t.funcs in
  let rec go i =
    if i = n then Ok ()
    else if t.funcs.(i).fid <> i then
      Error (Printf.sprintf "function at index %d has fid %d" i t.funcs.(i).fid)
    else
      match check_func n t.funcs.(i) with Ok () -> go (i + 1) | Error e -> Error e
  in
  go 0

let of_funcs fl =
  let t = { funcs = Array.of_list fl } in
  match validate t with Ok () -> t | Error e -> invalid_arg ("Program.of_funcs: " ^ e)

let length t = Array.length t.funcs
let func t fid = t.funcs.(fid)

let fetch t fid idx =
  if fid < 0 || fid >= Array.length t.funcs then None
  else
    let body = t.funcs.(fid).body in
    if idx < 0 || idx >= Array.length body then None else Some body.(idx)
