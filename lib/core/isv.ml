module Bitset = Pv_util.Bitset

type kind = All | Static | Dynamic | Plus

type t = Bitset.t

let all ~nnodes =
  let b = Bitset.create nnodes in
  for i = 0 to nnodes - 1 do
    Bitset.set b i
  done;
  b

let of_nodes = Bitset.copy
let member = Bitset.mem
let size = Bitset.count
let exclude = Bitset.clear
let nodes = Bitset.copy

let reduction_vs_kernel t =
  100.0 *. (1.0 -. (float_of_int (size t) /. float_of_int (Bitset.length t)))
