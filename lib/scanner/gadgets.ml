module Callgraph = Pv_kernel.Callgraph
module Rng = Pv_util.Rng
module Bitset = Pv_util.Bitset

type kind = Mds | Port | CacheChannel

type gadget = { node : int; kind : kind }

type t = { all : gadget list; nnodes : int }

(* Gadget placement weight.  Kasper's corpus concentrates in the shared
   mm/vfs/net core (complex, pointer-heavy, reached by every fuzzed syscall)
   and, within a region, in cold code that auditing rarely visits. *)
let weight graph node =
  let region_w =
    match Callgraph.region graph node with
    | `Core -> 3.2
    | `Entry -> 0.4
    | `Ipool -> 1.0
    | `Private -> 0.8
  in
  let cold_w = if Callgraph.is_cold graph node then 1.6 else 0.55 in
  (* The hottest, most-audited functions right below the syscall entries
     rarely harbour surviving gadgets. *)
  let d = Callgraph.depth graph node in
  let depth_w = if d <= 1 then 0.25 else 1.0 in
  region_w *. cold_w *. depth_w

let plant_counts graph ~seed ~mds ~port ~cache =
  let rng = Rng.create (seed lxor 0x67616467) in
  let n = Callgraph.nnodes graph in
  let sampler = Rng.weighted (Array.init n (weight graph)) in
  let pick_nodes count =
    let chosen = Hashtbl.create count in
    let rec go remaining guardrail =
      if remaining > 0 && guardrail > 0 then begin
        let node = Rng.pick rng sampler in
        if Hashtbl.mem chosen node then go remaining (guardrail - 1)
        else begin
          Hashtbl.replace chosen node ();
          go (remaining - 1) guardrail
        end
      end
    in
    go count (count * 100);
    Hashtbl.fold (fun node () acc -> node :: acc) chosen []
  in
  let tag kind nodes = List.map (fun node -> { node; kind }) nodes in
  {
    all =
      tag Mds (pick_nodes mds) @ tag Port (pick_nodes port)
      @ tag CacheChannel (pick_nodes cache);
    nnodes = n;
  }

let plant graph ~seed = plant_counts graph ~seed ~mds:805 ~port:509 ~cache:219

let total t = List.length t.all

let count t kind = List.length (List.filter (fun g -> g.kind = kind) t.all)

let gadgets t = t.all

let nodes t = List.map (fun g -> g.node) t.all

let in_scope t scope = List.filter (fun g -> Bitset.mem scope g.node) t.all

let excluded_pct t kind scope =
  match List.filter (fun g -> g.kind = kind) t.all with
  | [] -> 0.0 (* no gadgets of this kind: nothing is in scope to exclude *)
  | of_kind ->
      let blocked = List.filter (fun g -> not (Bitset.mem scope g.node)) of_kind in
      Pv_util.Stats.ratio_pct ~num:(List.length blocked) ~den:(List.length of_kind)
