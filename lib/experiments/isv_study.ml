module Kernel = Pv_kernel.Kernel
module Callgraph = Pv_kernel.Callgraph
module Gadgets = Pv_scanner.Gadgets
module Campaign = Pv_scanner.Campaign
module Bitset = Pv_util.Bitset
module Tab = Pv_util.Tab
module Stats = Pv_util.Stats

type workload_views = {
  name : string;
  static_nodes : Bitset.t;
  dynamic_nodes : Bitset.t;
  plus_nodes : Bitset.t;
}

type t = {
  kernel : Kernel.t;
  corpus : Gadgets.t;
  views : workload_views list;
  build_seed : int;  (* pins kernel/corpus/views for cache descriptors *)
}

let build ?(seed = 42) () =
  let kernel = Kernel.create ~seed () in
  let graph = Kernel.graph kernel in
  let corpus = Gadgets.plant graph ~seed in
  let views =
    List.map
      (fun (w : Workset.w) ->
        let proc = Kernel.spawn kernel ~name:w.Workset.name in
        for _ = 1 to w.Workset.repetitions do
          List.iter
            (fun (nr, args) -> ignore (Kernel.exec_syscall kernel proc ~nr ~args))
            w.Workset.sequence
        done;
        let ctx = Pv_kernel.Process.cgroup proc in
        let static_nodes =
          Pv_isvgen.Static_isv.node_set graph ~syscalls:(Workset.syscalls w)
        in
        let dynamic_nodes = Pv_isvgen.Dynamic_isv.node_set kernel ~ctx in
        (* ISV++: the bounded audit finds every gadget inside the dynamic
           view; exclude them. *)
        let in_view =
          List.filter_map
            (fun g ->
              if Bitset.mem dynamic_nodes g.Gadgets.node then Some g.Gadgets.node
              else None)
            (Gadgets.gadgets corpus)
        in
        let plus_nodes =
          let b = Bitset.copy dynamic_nodes in
          List.iter (Bitset.clear b) in_view;
          b
        in
        { name = w.Workset.name; static_nodes; dynamic_nodes; plus_nodes })
      Workset.all
  in
  { kernel; corpus; views; build_seed = seed }

(* --- Table 8.1 ------------------------------------------------------ *)

type surface_row = {
  workload : string;
  isv_s_reduction : float;
  isv_reduction : float;
  static_size : int;
  dynamic_size : int;
  kernel_functions : int;
}

let reduction ~total size = 100.0 *. (1.0 -. (float_of_int size /. float_of_int total))

let surface_rows t =
  let total = Callgraph.nnodes (Kernel.graph t.kernel) in
  List.map
    (fun v ->
      let s = Bitset.count v.static_nodes in
      let d = Bitset.count v.dynamic_nodes in
      {
        workload = v.name;
        isv_s_reduction = reduction ~total s;
        isv_reduction = reduction ~total d;
        static_size = s;
        dynamic_size = d;
        kernel_functions = total;
      })
    t.views

let surface_table t =
  let tab =
    Tab.create ~title:"Table 8.1: Attack surface reduction with Perspective"
      ~header:
        [
          ("Config", Tab.Left);
          ("LEBench", Tab.Right);
          ("httpd", Tab.Right);
          ("nginx", Tab.Right);
          ("memcached", Tab.Right);
          ("redis", Tab.Right);
        ]
  in
  let rows = surface_rows t in
  let line name f = name :: List.map (fun r -> Tab.pct (f r)) rows in
  Tab.row tab (line "ISV-S" (fun r -> r.isv_s_reduction));
  Tab.row tab (line "ISV" (fun r -> r.isv_reduction));
  Tab.caption tab "Paper: ISV-S 90-92%, ISV 94-96% across all workloads.";
  (match rows with
  | r :: _ ->
    Tab.caption tab
      (Printf.sprintf "Kernel functions: %d; e.g. %s static ISV %d, dynamic ISV %d."
         r.kernel_functions r.workload r.static_size r.dynamic_size)
  | [] -> ());
  tab

(* --- Table 8.2 ------------------------------------------------------ *)

type gadget_row = {
  workload : string;
  isv_s_pct : float * float * float;
  isv_pct : float * float * float;
  plus_pct : float * float * float;
}

let kinds_pct corpus scope =
  ( Gadgets.excluded_pct corpus Gadgets.Mds scope,
    Gadgets.excluded_pct corpus Gadgets.Port scope,
    Gadgets.excluded_pct corpus Gadgets.CacheChannel scope )

let gadget_rows t =
  List.map
    (fun v ->
      {
        workload = v.name;
        isv_s_pct = kinds_pct t.corpus v.static_nodes;
        isv_pct = kinds_pct t.corpus v.dynamic_nodes;
        plus_pct = kinds_pct t.corpus v.plus_nodes;
      })
    t.views

let fmt3 (a, b, c) = Printf.sprintf "%.0f%% / %.0f%% / %.0f%%" a b c

let gadget_table t =
  let tab =
    Tab.create ~title:"Table 8.2: Perspective's MDS/Port/Cache gadget reduction"
      ~header:
        [
          ("Benchmark", Tab.Left);
          ("ISV-S", Tab.Right);
          ("ISV", Tab.Right);
          ("ISV++", Tab.Right);
        ]
  in
  List.iter
    (fun r -> Tab.row tab [ r.workload; fmt3 r.isv_s_pct; fmt3 r.isv_pct; fmt3 r.plus_pct ])
    (gadget_rows t);
  Tab.caption tab
    (Printf.sprintf "Corpus: %d gadgets (%d MDS / %d Port / %d Cache), as Kasper reports."
       (Gadgets.total t.corpus)
       (Gadgets.count t.corpus Gadgets.Mds)
       (Gadgets.count t.corpus Gadgets.Port)
       (Gadgets.count t.corpus Gadgets.CacheChannel));
  Tab.caption tab "Paper: ISV-S 78-87%, ISV 91-93%, ISV++ 100% across workloads.";
  tab

(* --- Figure 9.1 ------------------------------------------------------ *)

type speedup_row = {
  workload : string;
  full_rate : float;
  bounded_rate : float;
  speedup : float;
}

(* One cell per workload's bounded campaign.  Campaign.run only reads the
   shared graph/corpus (its own state is local), so the cells are pool-safe.
   The full-kernel campaign is shared, computed up front (outside
   supervision — if it fails nothing downstream is meaningful). *)
let speedup_cells ?(seed = 42) t =
  let graph = Kernel.graph t.kernel in
  let full = Campaign.run graph t.corpus ~seed () in
  List.map
    (fun v ->
      Supervise.cell
        ~cache:
          (Printf.sprintf "isv-study/speedup|workload=%s|build_seed=%d|seed=%d"
             v.name t.build_seed seed)
        ("speedup/" ^ v.name)
        (fun ~fuel:_ ->
          let bounded = Campaign.run graph t.corpus ~scope:v.dynamic_nodes ~seed () in
          {
            workload = v.name;
            full_rate = full.Campaign.rate;
            bounded_rate = bounded.Campaign.rate;
            speedup = Campaign.speedup ~bounded ~full;
          }))
    t.views

let speedup_table_rows rows =
  let tab =
    Tab.create ~title:"Figure 9.1: Speedup of Kasper's gadget discovery rate (gadgets/hour)"
      ~header:
        [
          ("Workload", Tab.Left);
          ("Full kernel (g/h)", Tab.Right);
          ("ISV-bounded (g/h)", Tab.Right);
          ("Speedup", Tab.Right);
        ]
  in
  let present = List.filter_map snd rows in
  List.iter
    (fun (key, row) ->
      match row with
      | Some r ->
        Tab.row tab
          [ r.workload; Tab.fl r.full_rate; Tab.fl r.bounded_rate; Tab.times r.speedup ]
      | None -> Tab.row tab [ Filename.basename key; "FAILED"; "-"; "-" ])
    rows;
  (* An all-failed sweep has no speedup series: say so, don't omit the row
     (and never average a plausible-looking 0). *)
  (match Stats.mean_opt (List.map (fun r -> r.speedup) present) with
  | Some avg -> Tab.row tab [ "average"; ""; ""; Tab.times avg ]
  | None -> Tab.row tab [ "average"; ""; ""; "n/a" ]);
  Tab.caption tab "Paper: 1.14-2.23x across workloads, 1.57x on average.";
  tab
