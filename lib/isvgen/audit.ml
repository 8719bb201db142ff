module Isv = Perspective.Isv

let harden isv ~gadget_nodes =
  let hardened = Isv.of_nodes (Isv.nodes isv) in
  List.iter (fun node -> Isv.exclude hardened node) gadget_nodes;
  hardened
