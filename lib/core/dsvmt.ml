
(* Index split for a 4 KiB page number: 9 bits per level (512-ary tree),
   L1 covers 1 GiB (2^18 pages), L2 covers 2 MiB (2^9 pages). *)
let l2_bits = 9

let l1_bits = 9

type leaf_table = { bits : bool array; present : bool array }

type mid_table = leaf_table option array

type t = {
  oracle : page:int -> bool;
  top : (int, mid_table) Hashtbl.t; (* 1 GiB region index -> mid table *)
}

let create ~oracle = { oracle; top = Hashtbl.create 16 }

let split page =
  let l3 = page land ((1 lsl l2_bits) - 1) in
  let l2 = (page lsr l2_bits) land ((1 lsl l1_bits) - 1) in
  let l1 = page lsr (l2_bits + l1_bits) in
  (l1, l2, l3)

let mid_table t l1 =
  match Hashtbl.find_opt t.top l1 with
  | Some m -> m
  | None ->
    let m = Array.make (1 lsl l1_bits) None in
    Hashtbl.replace t.top l1 m;
    m

let leaf_table m l2 =
  match m.(l2) with
  | Some l -> l
  | None ->
    let l =
      {
        bits = Array.make (1 lsl l2_bits) false;
        present = Array.make (1 lsl l2_bits) false;
      }
    in
    m.(l2) <- Some l;
    l

let walk t ~page =
  let l1, l2, l3 = split page in
  let leaf = leaf_table (mid_table t l1) l2 in
  if leaf.present.(l3) then leaf.bits.(l3)
  else begin
    let bit = t.oracle ~page in
    leaf.present.(l3) <- true;
    leaf.bits.(l3) <- bit;
    bit
  end

let invalidate_page t ~page =
  let l1, l2, l3 = split page in
  match Hashtbl.find_opt t.top l1 with
  | None -> ()
  | Some m -> (
    match m.(l2) with None -> () | Some leaf -> leaf.present.(l3) <- false)
