(* Flat layout, as in [Cache]: way [w] of set [s] is slot [s * ways + w] of
   [tags], [targets] and [lru], and byte [s * ways + w] of [valid]. *)
type t = {
  nsets : int;
  set_shift : int; (* log2 nsets *)
  tags : int array;
  targets : int array;
  lru : int array;
  valid : Bytes.t;
  mutable tick : int;
}

let tag_bits = 12

let ways = 4

(* Create-time state: no entry valid.  Stale tags, targets and LRU stamps
   are never read while an entry's valid byte is clear. *)
let reset t =
  Bytes.fill t.valid 0 (Bytes.length t.valid) '\000';
  t.tick <- 0

let create ?(entries = 4096) () =
  if entries <= 0 then invalid_arg "Btb.create: entries must be positive";
  if entries mod ways <> 0 then invalid_arg "Btb.create: entries not divisible by ways";
  let nsets = entries / ways in
  if nsets land (nsets - 1) <> 0 then
    invalid_arg (Printf.sprintf "Btb.create: set count %d is not a power of two" nsets);
  let rec log2 k = if 1 lsl k = nsets then k else log2 (k + 1) in
  let t =
    {
      nsets;
      set_shift = log2 0;
      tags = Array.make entries 0;
      targets = Array.make entries 0;
      lru = Array.make entries 0;
      valid = Bytes.create entries;
      tick = 0;
    }
  in
  reset t;
  t

(* [pc lsr 2] is never negative, so with [nsets] a power of two the mask
   and the shift are its [mod] and [/]. *)
let index_of t pc = (pc lsr 2) land (t.nsets - 1)

let tag_of t pc = ((pc lsr 2) lsr t.set_shift) land ((1 lsl tag_bits) - 1)

let is_valid t i = Bytes.get t.valid i <> '\000'

(* Slot holding [tag] in the set starting at [base], -1 when absent. *)
let find_slot t base tag =
  let rec go i =
    if i = base + ways then -1
    else if is_valid t i && t.tags.(i) = tag then i
    else go (i + 1)
  in
  go base

let lookup t pc =
  let i = find_slot t (index_of t pc * ways) (tag_of t pc) in
  if i < 0 then None
  else begin
    t.tick <- t.tick + 1;
    t.lru.(i) <- t.tick;
    Some t.targets.(i)
  end

(* The entry already holding [pc]'s tag, else the set's highest-index
   invalid way, else its first least-recently-used way. *)
let update t pc target =
  let base = index_of t pc * ways in
  let tag = tag_of t pc in
  let i =
    let hit = find_slot t base tag in
    if hit >= 0 then hit
    else begin
      let best = ref base in
      for w = base to base + ways - 1 do
        if not (is_valid t w) then best := w
        else if is_valid t !best && t.lru.(w) < t.lru.(!best) then best := w
      done;
      !best
    end
  in
  t.tick <- t.tick + 1;
  t.tags.(i) <- tag;
  t.targets.(i) <- target;
  Bytes.set t.valid i '\001';
  t.lru.(i) <- t.tick
