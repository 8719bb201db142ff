module Callgraph = Pv_kernel.Callgraph

let node_set graph ~syscalls =
  let entries = List.map (Callgraph.entry_of_syscall graph) syscalls in
  Callgraph.static_reachable graph entries

let generate graph ~syscalls =
  Perspective.Isv.of_nodes (node_set graph ~syscalls)
