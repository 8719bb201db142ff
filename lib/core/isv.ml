module Bitset = Pv_util.Bitset

type kind = All | Static | Dynamic | Plus

type t = { kind : kind; mutable nodes : Bitset.t }

let all ~nnodes =
  let b = Bitset.create nnodes in
  for i = 0 to nnodes - 1 do
    Bitset.set b i
  done;
  { kind = All; nodes = b }

let of_nodes kind nodes = { kind; nodes = Bitset.copy nodes }

let kind t = t.kind
let nnodes t = Bitset.length t.nodes
let member t n = Bitset.mem t.nodes n
let size t = Bitset.count t.nodes

let exclude t n = Bitset.clear t.nodes n

let shrink_to t b = t.nodes <- Bitset.inter t.nodes b

let nodes t = Bitset.copy t.nodes

let reduction_vs_kernel t =
  100.0 *. (1.0 -. (float_of_int (size t) /. float_of_int (nnodes t)))
