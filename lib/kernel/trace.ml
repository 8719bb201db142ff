module Bitset = Pv_util.Bitset

type profile = {
  nodes : Bitset.t;
  sys_used : bool array;
  mutable invocations : int;
}

type t = { nnodes : int; profiles : (int, profile) Hashtbl.t }

let create cg = { nnodes = Callgraph.nnodes cg; profiles = Hashtbl.create 8 }

let profile t ctx =
  match Hashtbl.find_opt t.profiles ctx with
  | Some p -> p
  | None ->
    let p =
      { nodes = Bitset.create t.nnodes; sys_used = Array.make Sysno.count false; invocations = 0 }
    in
    Hashtbl.replace t.profiles ctx p;
    p

let record_syscall t ~ctx nr =
  let p = profile t ctx in
  p.sys_used.(nr) <- true;
  p.invocations <- p.invocations + 1

let record_node t ~ctx node = Bitset.set (profile t ctx).nodes node

let record_nodes t ~ctx nodes = List.iter (record_node t ~ctx) nodes

let nodes t ~ctx =
  match Hashtbl.find_opt t.profiles ctx with
  | Some p -> Bitset.copy p.nodes
  | None -> Bitset.create t.nnodes

let syscalls_used t ~ctx =
  match Hashtbl.find_opt t.profiles ctx with
  | None -> []
  | Some p ->
    let acc = ref [] in
    for nr = Sysno.count - 1 downto 0 do
      if p.sys_used.(nr) then acc := nr :: !acc
    done;
    !acc

let syscall_count t ~ctx =
  match Hashtbl.find_opt t.profiles ctx with Some p -> p.invocations | None -> 0

let reset t ~ctx = Hashtbl.remove t.profiles ctx
