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
  mutable alloc_tick : int; (* deterministic tie-breaking for allocation *)
}

let slot table idx = (table * table_size) + idx

(* Provider/alternate information packed into an int, so a prediction
   allocates nothing: bits 0-2 hold the provider table + 1 (0 = the bimodal
   base), bit 3 the provider's prediction, bit 4 the alternate's.  Indices
   and tags are recomputed from [pc] and [hist] when the branch resolves. *)
type meta = int

(* Create-time state: bimodal counters weakly taken, tagged tables empty. *)
let reset t =
  Array.fill t.base 0 (Array.length t.base) 2;
  Array.fill t.slot_tag 0 (Array.length t.slot_tag) 0;
  Array.fill t.slot_ctr 0 (Array.length t.slot_ctr) 0;
  Array.fill t.slot_u 0 (Array.length t.slot_u) 0;
  t.alloc_tick <- 0

let create () =
  let t =
    {
      base = Array.make (1 lsl base_bits) 0;
      slot_tag = Array.make (num_tables * table_size) 0;
      slot_ctr = Array.make (num_tables * table_size) 0;
      slot_u = Array.make (num_tables * table_size) 0;
      alloc_tick = 0;
    }
  in
  reset t;
  t

(* Fold [len] bits of history together with the pc into [bits] bits. *)
let rec fold_bits acc h mask bits =
  if h = 0 then acc else fold_bits (acc lxor (h land mask)) (h lsr bits) mask bits

let fold pc hist len bits =
  let mask = (1 lsl bits) - 1 in
  let h = if len >= 63 then hist else hist land ((1 lsl len) - 1) in
  (fold_bits 0 h mask bits lxor (pc lsr 2) lxor (pc lsr (2 + bits))) land mask

let tag_of pc hist len =
  let mask = (1 lsl tag_bits) - 1 in
  (fold pc (hist * 3) len tag_bits lxor (pc lsr 4)) land mask

let base_index pc = (pc lsr 2) land ((1 lsl base_bits) - 1)

(* Slot of table [i]'s entry for ([pc], [hist]). *)
let slot_for pc hist i = slot i (fold pc hist (Array.unsafe_get history_lengths i) table_bits)

let predict t ~pc ~hist =
  let base_pred = t.base.(base_index pc) >= 2 in
  (* Longest matching component provides; second longest is the alternate. *)
  let provider = ref (-1) in
  let altpred = ref base_pred in
  let pred = ref base_pred in
  for i = 0 to num_tables - 1 do
    let s = slot_for pc hist i in
    if t.slot_tag.(s) = tag_of pc hist history_lengths.(i) then begin
      if !provider >= 0 then altpred := !pred;
      provider := i;
      pred := t.slot_ctr.(s) >= 0
    end
  done;
  (!provider + 1) lor (if !pred then 8 else 0) lor if !altpred then 16 else 0

let predicted meta = meta land 8 <> 0

let sat_inc v hi = if v < hi then v + 1 else v

let sat_dec v lo = if v > lo then v - 1 else v

let update t ~pc ~hist meta ~taken =
  let provider = (meta land 7) - 1 in
  let provider_pred = predicted meta in
  let alt_pred = meta land 16 <> 0 in
  let mispred = provider_pred <> taken in
  (* Update the provider (or base) counter. *)
  (if provider >= 0 then begin
     let s = slot_for pc hist provider in
     t.slot_ctr.(s) <-
       (if taken then sat_inc t.slot_ctr.(s) 3 else sat_dec t.slot_ctr.(s) (-4));
     (* Useful bit: provider differed from alternate and was right/wrong. *)
     if provider_pred <> alt_pred then
       t.slot_u.(s) <-
         (if provider_pred = taken then sat_inc t.slot_u.(s) 3
          else sat_dec t.slot_u.(s) 0)
   end
   else
     let b = base_index pc in
     t.base.(b) <- (if taken then sat_inc t.base.(b) 3 else sat_dec t.base.(b) 0));
  (* Allocate a new entry in a longer-history table on misprediction: the
     candidates are the longer tables whose entry is not useful, and the
     allocation tick picks among them in table order. *)
  if mispred && provider < num_tables - 1 then begin
    t.alloc_tick <- t.alloc_tick + 1;
    let start = provider + 1 in
    let ncand = ref 0 in
    for i = start to num_tables - 1 do
      if t.slot_u.(slot_for pc hist i) = 0 then incr ncand
    done;
    if !ncand = 0 then
      (* Nothing available: decay usefulness so progress is eventually made. *)
      for i = start to num_tables - 1 do
        let s = slot_for pc hist i in
        t.slot_u.(s) <- sat_dec t.slot_u.(s) 0
      done
    else begin
      let k = ref (t.alloc_tick mod !ncand) in
      let pick = ref start in
      while !k > 0 || t.slot_u.(slot_for pc hist !pick) <> 0 do
        if t.slot_u.(slot_for pc hist !pick) = 0 then decr k;
        incr pick
      done;
      let s = slot_for pc hist !pick in
      t.slot_tag.(s) <- tag_of pc hist history_lengths.(!pick);
      t.slot_ctr.(s) <- (if taken then 0 else -1);
      t.slot_u.(s) <- 0
    end
  end

