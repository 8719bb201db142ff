let history_lengths = [| 4; 12; 28; 60 |]

let num_tables = Array.length history_lengths

let table_bits = 10 (* 1024 entries per tagged table *)

let table_size = 1 lsl table_bits

let tag_bits = 9

let base_bits = 12 (* 4096-entry bimodal *)

(* The tagged tables are flat: entry [idx] of table [i] is slot
   [i * table_size + idx] of [slot_tag], [slot_ctr] (signed 3-bit, -4..3)
   and [slot_u] (the 2-bit useful counter). *)
type t = {
  base : int array; (* 2-bit counters, 0..3 *)
  slot_tag : int array;
  slot_ctr : int array;
  slot_u : int array;
  mutable lookups : int;
  mutable alloc_tick : int; (* deterministic tie-breaking for allocation *)
}

let slot table idx = (table * table_size) + idx

type meta = {
  provider : int; (* table index, -1 = base *)
  provider_idx : int;
  alt_pred : bool;
  provider_pred : bool;
  indices : int array;
  tags : int array;
  base_idx : int;
}

let create () =
  {
    base = Array.make (1 lsl base_bits) 2;
    slot_tag = Array.make (num_tables * table_size) 0;
    slot_ctr = Array.make (num_tables * table_size) 0;
    slot_u = Array.make (num_tables * table_size) 0;
    lookups = 0;
    alloc_tick = 0;
  }

(* Fold [len] bits of history together with the pc into [bits] bits. *)
let fold pc hist len bits =
  let mask = (1 lsl bits) - 1 in
  let h = if len >= 63 then hist else hist land ((1 lsl len) - 1) in
  let rec go acc h = if h = 0 then acc else go (acc lxor (h land mask)) (h lsr bits) in
  let folded = go 0 h in
  (folded lxor (pc lsr 2) lxor (pc lsr (2 + bits))) land mask

let tag_of pc hist len =
  let mask = (1 lsl tag_bits) - 1 in
  (fold pc (hist * 3) len tag_bits lxor (pc lsr 4)) land mask

let base_index pc = (pc lsr 2) land ((1 lsl base_bits) - 1)

let predict t ~pc ~hist =
  t.lookups <- t.lookups + 1;
  let indices = Array.init num_tables (fun i -> fold pc hist history_lengths.(i) table_bits) in
  let tags = Array.init num_tables (fun i -> tag_of pc hist history_lengths.(i)) in
  let base_idx = base_index pc in
  let base_pred = t.base.(base_idx) >= 2 in
  (* Longest matching component provides; second longest is the alternate. *)
  let provider = ref (-1) in
  let altpred = ref base_pred in
  let pred = ref base_pred in
  for i = 0 to num_tables - 1 do
    let s = slot i indices.(i) in
    if t.slot_tag.(s) = tags.(i) then begin
      if !provider >= 0 then altpred := !pred;
      provider := i;
      pred := t.slot_ctr.(s) >= 0
    end
  done;
  let meta =
    {
      provider = !provider;
      provider_idx = (if !provider >= 0 then indices.(!provider) else base_idx);
      alt_pred = !altpred;
      provider_pred = !pred;
      indices;
      tags;
      base_idx;
    }
  in
  (!pred, meta)

let sat_inc v hi = if v < hi then v + 1 else v

let sat_dec v lo = if v > lo then v - 1 else v

let update t ~pc:_ ~hist:_ meta ~taken =
  let mispred = meta.provider_pred <> taken in
  (* Update the provider (or base) counter. *)
  (if meta.provider >= 0 then begin
     let s = slot meta.provider meta.provider_idx in
     t.slot_ctr.(s) <-
       (if taken then sat_inc t.slot_ctr.(s) 3 else sat_dec t.slot_ctr.(s) (-4));
     (* Useful bit: provider differed from alternate and was right/wrong. *)
     if meta.provider_pred <> meta.alt_pred then
       t.slot_u.(s) <-
         (if meta.provider_pred = taken then sat_inc t.slot_u.(s) 3
          else sat_dec t.slot_u.(s) 0)
   end
   else
     t.base.(meta.base_idx) <-
       (if taken then sat_inc t.base.(meta.base_idx) 3
        else sat_dec t.base.(meta.base_idx) 0));
  (* Allocate a new entry in a longer-history table on misprediction. *)
  if mispred && meta.provider < num_tables - 1 then begin
    t.alloc_tick <- t.alloc_tick + 1;
    let start = meta.provider + 1 in
    let candidates = ref [] in
    for i = num_tables - 1 downto start do
      if t.slot_u.(slot i meta.indices.(i)) = 0 then candidates := i :: !candidates
    done;
    match !candidates with
    | [] ->
      (* Nothing available: decay usefulness so progress is eventually made. *)
      for i = start to num_tables - 1 do
        let s = slot i meta.indices.(i) in
        t.slot_u.(s) <- sat_dec t.slot_u.(s) 0
      done
    | cs ->
      let pick = List.nth cs (t.alloc_tick mod List.length cs) in
      let s = slot pick meta.indices.(pick) in
      t.slot_tag.(s) <- meta.tags.(pick);
      t.slot_ctr.(s) <- (if taken then 0 else -1);
      t.slot_u.(s) <- 0
  end

let lookups t = t.lookups
