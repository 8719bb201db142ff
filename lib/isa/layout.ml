type space = Kernel | User

let insn_bytes = 4
let page_bytes = 4096
let line_bytes = 64
let max_insns_per_func = page_bytes / insn_bytes

(* User half below 0x4000_0000_0000, kernel half above. *)
let user_code_base = 0x0000_1000_0000
let user_data_base = 0x0000_8000_0000
let kernel_half_base = 0x4000_0000_0000
let kernel_code_base = 0x4000_0000_0000
let direct_map_base = 0x5000_0000_0000
let kernel_global_base = 0x5800_0000_0000

let func_base space fid =
  match space with
  | Kernel -> kernel_code_base + (fid * page_bytes)
  | User -> user_code_base + (fid * page_bytes)

let insn_va space fid idx = func_base space fid + (idx * insn_bytes)

(* Code regions are bounded by the largest function count we ever synthesize;
   64K functions x 4 KiB = 256 MiB per space. *)
let code_region_bytes = 0x1000_0000

let decode_code_va va =
  let in_region base = va >= base && va < base + code_region_bytes in
  let decode base space =
    let off = va - base in
    Some (space, off / page_bytes, off mod page_bytes / insn_bytes)
  in
  if in_region kernel_code_base then decode kernel_code_base Kernel
  else if in_region user_code_base then decode user_code_base User
  else None

let space_of_va va = if va >= kernel_half_base then Kernel else User

let direct_map_va pa = direct_map_base + pa

let pa_of_direct_map va =
  if va >= direct_map_base && va < kernel_global_base then
    Some (va - direct_map_base)
  else None

let phys_key ~asid va =
  match space_of_va va with
  | Kernel -> va
  | User -> va lxor (asid lsl 48)

let line_of addr = addr / line_bytes
