(* FNV-1a 64 (Journal's record checksums, Rescache's digests) and the hex
   codec of Rescache's envelope fields. *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv1a64 s =
  let h = ref fnv_offset in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h fnv_prime)
    s;
  !h

let digest_hex s = Printf.sprintf "%016Lx" (fnv1a64 s)

let hex_of_string s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let string_of_hex h =
  let n = String.length h in
  if n mod 2 <> 0 then None
  else
    let digit c =
      match c with
      | '0' .. '9' -> Some (Char.code c - Char.code '0')
      | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
      | _ -> None
    in
    let b = Bytes.create (n / 2) in
    let ok = ref true in
    for i = 0 to (n / 2) - 1 do
      match (digit h.[2 * i], digit h.[(2 * i) + 1]) with
      | Some hi, Some lo -> Bytes.set b i (Char.chr ((hi lsl 4) lor lo))
      | _ -> ok := false
    done;
    if !ok then Some (Bytes.to_string b) else None
