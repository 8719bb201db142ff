module Rng = Pv_util.Rng
module Bitset = Pv_util.Bitset

(* Shape of the synthetic kernel. *)
let nodes = 28_000
let shared_core = 1_200
let indirect_pool = 2_600
let core_fanout = 3 (* max callees of a core node *)
let entry_core_calls = 3 (* core roots each syscall entry calls *)
let cross_call_prob = 0.30 (* private node calls into the core *)
let icall_site_prob = 0.06 (* private/core node hosts an indirect dispatch site *)
let icall_targets = 6 (* candidate targets per dispatch site *)
let cold_prob = 0.15 (* fraction of non-entry nodes that are cold *)

(* Region boundaries inside the node id space:
   [0, nsys)                          syscall entries
   [nsys, nsys+core)                  shared core (layered)
   [nsys+core, nsys+core+ipool)       indirect pool
   [rest]                             per-syscall private subtrees *)
let nsys = Sysno.count
let core_lo = nsys
let core_hi = nsys + shared_core
let ipool_lo = core_hi
let ipool_hi = core_hi + indirect_pool
let priv_lo = ipool_hi

let () = assert (nodes >= priv_lo + nsys)

(* Node [n]'s direct callees are [direct.(direct_off.(n)) ..
   direct.(direct_off.(n + 1) - 1)]; likewise its dispatch-site targets in
   [indirect]. *)
type t = {
  direct_off : int array;
  direct : int array;
  indirect_off : int array;
  indirect : int array;
  cold : Bytes.t;
  depths : int array;
}

let nnodes _ = nodes

(* Names are formatted on demand: only kernel-image functions and reports
   ever ask for one. *)
let node_name _ i =
  if i < 0 || i >= nodes then invalid_arg "Callgraph.node_name"
  else if i < core_lo then "sys_" ^ Sysno.name i
  else if i < core_hi then Printf.sprintf "core_%04d" (i - core_lo)
  else if i < ipool_hi then Printf.sprintf "ops_%04d" (i - ipool_lo)
  else Printf.sprintf "helper_%05d" (i - priv_lo)

let entry_of_syscall _ nr =
  if nr < 0 || nr >= nsys then invalid_arg "Callgraph.entry_of_syscall";
  nr

let slice off arr n = List.init (off.(n + 1) - off.(n)) (fun k -> arr.(off.(n) + k))
let direct_callees t n = slice t.direct_off t.direct n
let indirect_targets t n = slice t.indirect_off t.indirect n
let is_cold t n = Bytes.get t.cold n <> '\000'
let depth t n = t.depths.(n)
let indirect_only t n = t.depths.(n) = max_int

(* Direct edges arrive in RNG order, each packed as [src * nodes + dst].
   [compress] lays each node's callees out newest first: Kimage.helper_nodes
   and sample_trace walk them in that order, so the order fixes every
   kernel image and trace. *)
let compress edges len =
  let off = Array.make (nodes + 1) 0 in
  for e = 0 to len - 1 do
    let s = edges.(e) / nodes in
    off.(s) <- off.(s) + 1
  done;
  (* Running sums leave off.(n) at the end of n's range ... *)
  for n = 1 to nodes - 1 do
    off.(n) <- off.(n) + off.(n - 1)
  done;
  off.(nodes) <- len;
  (* ... and filling each range from its end walks off.(n) back to its start. *)
  let targets = Array.make len 0 in
  for e = 0 to len - 1 do
    let s = edges.(e) / nodes in
    off.(s) <- off.(s) - 1;
    targets.(off.(s)) <- edges.(e) mod nodes
  done;
  (off, targets)

let build seed =
  let rng = Rng.create seed in
  (* Each phase below adds at most its share of this bound. *)
  let max_edges =
    (shared_core * core_fanout) + (2 * indirect_pool) + (nsys * entry_core_calls)
    + (2 * (nodes - priv_lo))
  in
  let edges = Array.make max_edges 0 in
  let nedges = ref 0 in
  let add_edge s d =
    if s <> d then begin
      edges.(!nedges) <- (s * nodes) + d;
      incr nedges
    end
  in
  (* Shared core: 4 layers, calls flow to strictly deeper layers so the core
     is acyclic and entries reach a cone rather than the whole core. *)
  let layers = 4 in
  let layer_of i = (i - core_lo) * layers / shared_core in
  for i = core_lo to core_hi - 1 do
    let l = layer_of i in
    if l < layers - 1 then begin
      let fanout = Rng.int rng (core_fanout + 1) in
      for _ = 1 to fanout do
        (* A callee in a strictly deeper layer. *)
        let dl = l + 1 + Rng.int rng (layers - l - 1) in
        let lo = core_lo + (dl * shared_core / layers) in
        let hi = core_lo + (((dl + 1) * shared_core / layers) - 1) in
        if hi >= lo then add_edge i (Rng.in_range rng lo hi)
      done
    end
  done;
  (* Indirect pool nodes may call a couple of deep-core helpers. *)
  for i = ipool_lo to ipool_hi - 1 do
    let calls = Rng.int rng 3 in
    for _ = 1 to calls do
      let lo = core_lo + (shared_core / 2) in
      add_edge i (Rng.in_range rng lo (core_hi - 1))
    done
  done;
  (* Per-syscall private subtrees over an equal partition of the remaining
     nodes; each private node's parent is an earlier node of the same chunk
     (or the entry), giving a random recursive tree. *)
  let chunk = (nodes - priv_lo) / nsys in
  for s = 0 to nsys - 1 do
    let lo = priv_lo + (s * chunk) in
    let hi = if s = nsys - 1 then nodes - 1 else lo + chunk - 1 in
    for i = lo to hi do
      let parent = if i = lo || Rng.chance rng 0.15 then s else Rng.in_range rng lo (i - 1) in
      add_edge parent i
    done;
    (* The entry also calls a few core roots (layer 0). *)
    let core_layer0_hi = core_lo + (shared_core / layers) - 1 in
    for _ = 1 to entry_core_calls do
      add_edge s (Rng.in_range rng core_lo core_layer0_hi)
    done
  done;
  (* Cross calls from private nodes into the core, and indirect dispatch
     sites on private and core nodes targeting the indirect pool.  Nodes are
     visited in id order, so each site's sorted candidates are appended in
     CSR order directly. *)
  let indirect_off = Array.make (nodes + 1) 0 in
  let indirect = ref (Array.make 8192 0) and nind = ref 0 in
  for i = core_lo to nodes - 1 do
    indirect_off.(i) <- !nind;
    let private_node = i >= priv_lo in
    if private_node && Rng.chance rng cross_call_prob then
      add_edge i (Rng.in_range rng core_lo (core_hi - 1));
    if (private_node || i < core_hi) && Rng.chance rng icall_site_prob then begin
      let k = 2 + Rng.int rng (max 1 (icall_targets - 1)) in
      let targets = List.init k (fun _ -> Rng.in_range rng ipool_lo (ipool_hi - 1)) in
      if !nind + k > Array.length !indirect then
        indirect := Array.append !indirect (Array.make (Array.length !indirect) 0);
      List.iter
        (fun v ->
          !indirect.(!nind) <- v;
          incr nind)
        (List.sort_uniq compare targets)
    end
  done;
  indirect_off.(nodes) <- !nind;
  let direct_off, direct = compress edges !nedges in
  (* Cold labelling: entries are always hot. *)
  let cold = Bytes.make nodes '\000' in
  for i = nsys to nodes - 1 do
    if Rng.chance rng cold_prob then Bytes.set cold i '\001'
  done;
  (* Depths: BFS over direct edges from all entries. *)
  let depths = Array.make nodes max_int in
  let q = Queue.create () in
  for s = 0 to nsys - 1 do
    depths.(s) <- 0;
    Queue.add s q
  done;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    for k = direct_off.(u) to direct_off.(u + 1) - 1 do
      let v = direct.(k) in
      if depths.(v) = max_int then begin
        depths.(v) <- depths.(u) + 1;
        Queue.add v q
      end
    done
  done;
  {
    direct_off;
    direct;
    indirect_off;
    indirect = Array.sub !indirect 0 !nind;
    cold;
    depths;
  }

(* The most recent seed's graph, shared by every domain: the cells of a
   sweep run on one seed, and a graph is immutable once built.  One slot,
   not a table, so a calibration that cycles through derived seeds retains
   one graph rather than all of them. *)
let last = ref None
let last_lock = Mutex.create ()

let synthesize seed =
  Mutex.protect last_lock (fun () ->
      match !last with
      | Some (s, g) when s = seed -> g
      | Some _ | None ->
        let g = build seed in
        last := Some (seed, g);
        g)

let static_reachable t entries =
  let seen = Bitset.create nodes in
  let q = Queue.create () in
  let push v =
    if not (Bitset.mem seen v) then begin
      Bitset.set seen v;
      Queue.add v q
    end
  in
  List.iter push entries;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    for k = t.direct_off.(u) to t.direct_off.(u + 1) - 1 do
      push t.direct.(k)
    done
  done;
  seen

let sample_trace t rng ~syscall ~installed =
  let entry = entry_of_syscall t syscall in
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let rec walk u =
    if not (Hashtbl.mem seen u) then begin
      Hashtbl.replace seen u ();
      acc := u :: !acc;
      for k = t.direct_off.(u) to t.direct_off.(u + 1) - 1 do
        let v = t.direct.(k) in
        (* Cold paths are rarely exercised by real workloads. *)
        let p = if is_cold t v then 0.002 else 0.92 in
        if Rng.chance rng p then walk v
      done;
      match installed u with
      | Some target when List.mem target (indirect_targets t u) -> walk target
      | Some _ | None -> ()
    end
  in
  walk entry;
  List.rev !acc

let region _ node =
  if node < core_lo then `Entry
  else if node < core_hi then `Core
  else if node < ipool_hi then `Ipool
  else `Private

let indirect_pool_bounds _ = (ipool_lo, ipool_hi)

let default_installed t ~app_seed site =
  let lo = t.indirect_off.(site) in
  match t.indirect_off.(site + 1) - lo with
  | 0 -> None
  | n ->
    (* Deterministic per-app pick: which concrete ops table the app's file
       descriptors use at this dispatch site. *)
    let h = Rng.create (app_seed lxor (site * 2654435761)) in
    Some t.indirect.(lo + Rng.int h n)
