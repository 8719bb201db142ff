
(* Index split for a 4 KiB page number: 9 bits per level (512-ary tree),
   L1 covers 1 GiB (2^18 pages), L2 covers 2 MiB (2^9 pages). *)
let l2_bits = 9

let l1_bits = 9

type leaf_table = { bits : bool array; present : bool array }

type mid_table = {
  leaves : leaf_table option array;
  mutable huge : (bool * bool) array; (* (present, bit) per 2 MiB entry *)
}

type t = {
  ctx : int;
  oracle : page:int -> bool;
  top : (int, mid_table) Hashtbl.t; (* 1 GiB region index -> mid table *)
  mutable walks : int;
  mutable populated : int;
}

let create ~ctx ~oracle =
  { ctx; oracle; top = Hashtbl.create 16; walks = 0; populated = 0 }

let split page =
  let l3 = page land ((1 lsl l2_bits) - 1) in
  let l2 = (page lsr l2_bits) land ((1 lsl l1_bits) - 1) in
  let l1 = page lsr (l2_bits + l1_bits) in
  (l1, l2, l3)

let mid_table t l1 =
  match Hashtbl.find_opt t.top l1 with
  | Some m -> m
  | None ->
    let m =
      {
        leaves = Array.make (1 lsl l1_bits) None;
        huge = Array.make (1 lsl l1_bits) (false, false);
      }
    in
    Hashtbl.replace t.top l1 m;
    m

let leaf_table m l2 =
  match m.leaves.(l2) with
  | Some l -> l
  | None ->
    let l =
      {
        bits = Array.make (1 lsl l2_bits) false;
        present = Array.make (1 lsl l2_bits) false;
      }
    in
    m.leaves.(l2) <- Some l;
    l

let walk t ~page =
  t.walks <- t.walks + 1;
  let l1, l2, l3 = split page in
  let m = mid_table t l1 in
  let huge_present, huge_bit = m.huge.(l2) in
  if huge_present then huge_bit
  else
    let leaf = leaf_table m l2 in
    if leaf.present.(l3) then leaf.bits.(l3)
    else begin
      let bit = t.oracle ~page in
      leaf.present.(l3) <- true;
      leaf.bits.(l3) <- bit;
      t.populated <- t.populated + 1;
      bit
    end

let set_page t ~page bit =
  let l1, l2, l3 = split page in
  let leaf = leaf_table (mid_table t l1) l2 in
  if not leaf.present.(l3) then t.populated <- t.populated + 1;
  leaf.present.(l3) <- true;
  leaf.bits.(l3) <- bit

let invalidate_page t ~page =
  let l1, l2, l3 = split page in
  match Hashtbl.find_opt t.top l1 with
  | None -> ()
  | Some m -> (
    m.huge.(l2) <- (false, false);
    match m.leaves.(l2) with
    | None -> ()
    | Some leaf ->
      if leaf.present.(l3) then t.populated <- t.populated - 1;
      leaf.present.(l3) <- false)

let mark_huge t ~page_2m bit =
  let l1 = page_2m lsr l1_bits in
  let l2 = page_2m land ((1 lsl l1_bits) - 1) in
  let m = mid_table t l1 in
  m.huge.(l2) <- (true, bit)

let walks t = t.walks
let populated_leaves t = t.populated
