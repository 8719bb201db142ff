(* FNV-1a 64 (Journal's record checksums, Rescache's digests, the contract
   checker's observation digests) and the hex codec of Rescache's envelope
   fields.

   The streaming state keeps the 64-bit hash as two 32-bit halves in native
   ints, so folding a byte is a few integer operations and allocates
   nothing.  Multiplying by the FNV prime 2^40 + 0x1b3 modulo 2^64 is
   [(hi:lo) * 0x1b3 + (lo << 40)]: the low half's product carries into the
   high half, and [lo << 40] lands in the high half as [lo << 8]. *)

type t = { mutable hi : int; mutable lo : int }

let mask32 = 0xffff_ffff

let create () = { hi = 0xcbf29ce4; lo = 0x84222325 }

let[@inline] add_byte t b =
  let lo = t.lo lxor b in
  let p = lo * 0x1b3 in
  t.lo <- p land mask32;
  t.hi <- ((t.hi * 0x1b3) + (p lsr 32) + (lo lsl 8)) land mask32

let add_char t c = add_byte t (Char.code c)

let add_string t s =
  for i = 0 to String.length s - 1 do
    add_byte t (Char.code (String.unsafe_get s i))
  done

(* Decimal digits of [n <= 0], most significant first.  Working on the
   non-positive side means [min_int] needs no negation. *)
let rec add_digits t n =
  if n <= -10 then add_digits t (n / 10);
  add_byte t (Char.code '0' - (n mod 10))

let add_int t n =
  if n < 0 then begin
    add_byte t (Char.code '-');
    add_digits t n
  end
  else add_digits t (-n)

let to_int64 t = Int64.logor (Int64.shift_left (Int64.of_int t.hi) 32) (Int64.of_int t.lo)

let hex t = Printf.sprintf "%08x%08x" t.hi t.lo

type sink = Digest of t | Text of Buffer.t

let put_char s c =
  match s with Digest t -> add_char t c | Text b -> Buffer.add_char b c

let put_string s str =
  match s with Digest t -> add_string t str | Text b -> Buffer.add_string b str

let put_int s n =
  match s with Digest t -> add_int t n | Text b -> Buffer.add_string b (string_of_int n)

let render write x =
  let b = Buffer.create 256 in
  write (Text b) x;
  Buffer.contents b

let fnv1a64 s =
  let t = create () in
  add_string t s;
  to_int64 t

let digest_hex s =
  let t = create () in
  add_string t s;
  hex t

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
