(* Tests for the synthetic kernel: buddy allocator, secure slab, cgroups,
   processes, syscall table, callgraph synthesis, tracing, code generation
   and the executable kernel image. *)

module Physmem = Pv_kernel.Physmem
module Slab = Pv_kernel.Slab
module Process = Pv_kernel.Process
module Sysno = Pv_kernel.Sysno
module Callgraph = Pv_kernel.Callgraph
module Trace = Pv_kernel.Trace
module Kernel = Pv_kernel.Kernel
module Kimage = Pv_kernel.Kimage
module Codegen = Pv_kernel.Codegen
module Layout = Pv_isa.Layout
module Bitset = Pv_util.Bitset
module Rng = Pv_util.Rng

let check = Alcotest.check

(* --- buddy allocator --- *)

let test_buddy_basic () =
  let pm = Physmem.create ~frames:64 in
  check Alcotest.int "all free" 64 (Physmem.free_frames pm);
  let f = Option.get (Physmem.alloc_pages pm ~order:0 Physmem.Kernel) in
  check Alcotest.int "one allocated" 63 (Physmem.free_frames pm);
  Alcotest.(check bool) "owner" true
    (Physmem.owner_of pm f = Some Physmem.Kernel);
  Physmem.free_pages pm ~frame:f ~order:0;
  check Alcotest.int "freed" 64 (Physmem.free_frames pm);
  Alcotest.(check bool) "no owner" true (Physmem.owner_of pm f = None)

let test_buddy_alignment () =
  let pm = Physmem.create ~frames:64 in
  for order = 0 to 5 do
    match Physmem.alloc_pages pm ~order (Physmem.Cgroup 1) with
    | Some f ->
      check Alcotest.int (Printf.sprintf "order %d aligned" order) 0 (f mod (1 lsl order))
    | None -> Alcotest.fail "allocation failed"
  done

let test_buddy_exhaustion () =
  let pm = Physmem.create ~frames:4 in
  let a = Physmem.alloc_pages pm ~order:2 Physmem.Kernel in
  Alcotest.(check bool) "got block" true (a <> None);
  Alcotest.(check bool) "exhausted" true (Physmem.alloc_pages pm ~order:0 Physmem.Kernel = None)

let test_buddy_coalescing () =
  let pm = Physmem.create ~frames:8 in
  let fs = List.init 8 (fun _ -> Option.get (Physmem.alloc_pages pm ~order:0 Physmem.Kernel)) in
  Alcotest.(check bool) "full" true (Physmem.alloc_pages pm ~order:0 Physmem.Kernel = None);
  List.iter (fun f -> Physmem.free_pages pm ~frame:f ~order:0) fs;
  (* After freeing everything, a maximal block must be allocatable again. *)
  Alcotest.(check bool) "coalesced to order 3" true
    (Physmem.alloc_pages pm ~order:3 Physmem.Kernel <> None)

let test_buddy_double_free () =
  let pm = Physmem.create ~frames:8 in
  let f = Option.get (Physmem.alloc_pages pm ~order:0 Physmem.Kernel) in
  Physmem.free_pages pm ~frame:f ~order:0;
  Alcotest.(check bool) "double free rejected" true
    (try Physmem.free_pages pm ~frame:f ~order:0; false with Invalid_argument _ -> true)

let test_buddy_owner_per_block () =
  let pm = Physmem.create ~frames:16 in
  let f = Option.get (Physmem.alloc_pages pm ~order:2 (Physmem.Cgroup 7)) in
  for i = f to f + 3 do
    Alcotest.(check bool) "block frames owned" true
      (Physmem.owner_of pm i = Some (Physmem.Cgroup 7))
  done

let test_frame_va_roundtrip () =
  check Alcotest.(option int) "roundtrip" (Some 17) (Physmem.frame_of_va (Physmem.frame_va 17))

(* No overlap between concurrently live blocks, and frees restore everything:
   a property over random alloc/free traces. *)
let buddy_trace_prop =
  QCheck.Test.make ~name:"buddy: no overlap, conservation of frames" ~count:60
    QCheck.(small_list (pair (int_bound 3) bool))
    (fun ops ->
      let pm = Physmem.create ~frames:64 in
      let live = ref [] in
      let ok = ref true in
      List.iter
        (fun (order, do_free) ->
          if do_free then (
            match !live with
            | (f, o) :: rest ->
              Physmem.free_pages pm ~frame:f ~order:o;
              live := rest
            | [] -> ())
          else
            match Physmem.alloc_pages pm ~order Physmem.Kernel with
            | Some f ->
              (* overlap check against live blocks *)
              List.iter
                (fun (g, o) ->
                  let disjoint = f + (1 lsl order) <= g || g + (1 lsl o) <= f in
                  if not disjoint then ok := false)
                !live;
              live := (f, order) :: !live
            | None -> ())
        ops;
      let live_frames = List.fold_left (fun acc (_, o) -> acc + (1 lsl o)) 0 !live in
      !ok && Physmem.free_frames pm = 64 - live_frames)

(* --- slab allocator --- *)

(* The owner of the frame backing a direct-map VA. *)
let page_owner pm va = Physmem.owner_of pm (Option.get (Physmem.frame_of_va va))

let test_slab_class_rounding () =
  let pm = Physmem.create ~frames:64 in
  let s = Slab.create ~mode:Slab.Secure pm in
  let va = Option.get (Slab.kmalloc s ~owner:(Physmem.Cgroup 1) ~size:33) in
  Alcotest.(check bool) "owner tracked" true (page_owner pm va = Some (Physmem.Cgroup 1));
  check Alcotest.int "rounded to 64" 64 (Slab.active_bytes s)

let test_slab_secure_isolation () =
  let pm = Physmem.create ~frames:256 in
  let s = Slab.create ~mode:Slab.Secure pm in
  let vas = ref [] in
  for i = 1 to 200 do
    let owner = Physmem.Cgroup (1 + (i mod 3)) in
    match Slab.kmalloc s ~owner ~size:32 with
    | Some va -> vas := va :: !vas
    | None -> Alcotest.fail "oom"
  done;
  List.iter
    (fun va ->
      Alcotest.(check bool) "no cross-owner collocation" false
        (Slab.shares_page_with_other_owner s va))
    !vas

let test_slab_shared_collocates () =
  let pm = Physmem.create ~frames:64 in
  let s = Slab.create ~mode:Slab.Shared pm in
  let a = Option.get (Slab.kmalloc s ~owner:(Physmem.Cgroup 1) ~size:8) in
  let _b = Option.get (Slab.kmalloc s ~owner:(Physmem.Cgroup 2) ~size:8) in
  Alcotest.(check bool) "distrusting objects share a page" true
    (Slab.shares_page_with_other_owner s a)

let test_slab_page_return () =
  let pm = Physmem.create ~frames:64 in
  let s = Slab.create ~mode:Slab.Secure pm in
  let free_before = Physmem.free_frames pm in
  let va = Option.get (Slab.kmalloc s ~owner:(Physmem.Cgroup 1) ~size:128) in
  check Alcotest.int "page taken" (free_before - 1) (Physmem.free_frames pm);
  Slab.kfree s va;
  check Alcotest.int "page returned" free_before (Physmem.free_frames pm);
  check Alcotest.int "return counted" 1 (Slab.page_returns s);
  check Alcotest.int "free counted" 1 (Slab.total_frees s)

let test_slab_double_free () =
  let pm = Physmem.create ~frames:64 in
  let s = Slab.create ~mode:Slab.Secure pm in
  let va = Option.get (Slab.kmalloc s ~owner:Physmem.Kernel ~size:64) in
  let vb = Option.get (Slab.kmalloc s ~owner:Physmem.Kernel ~size:64) in
  ignore vb;
  Slab.kfree s va;
  Alcotest.(check bool) "double free rejected" true
    (try Slab.kfree s va; false with Invalid_argument _ -> true)

let test_slab_oversize () =
  let pm = Physmem.create ~frames:64 in
  let s = Slab.create ~mode:Slab.Secure pm in
  let va = Option.get (Slab.kmalloc s ~owner:(Physmem.Cgroup 1) ~size:10_000) in
  Alcotest.(check bool) "owner known" true (page_owner pm va = Some (Physmem.Cgroup 1));
  Slab.kfree s va;
  check Alcotest.int "all frames back" 64 (Physmem.free_frames pm)

let test_slab_utilization () =
  let pm = Physmem.create ~frames:64 in
  let s = Slab.create ~mode:Slab.Secure pm in
  check (Alcotest.float 0.0) "empty = 1.0" 1.0 (Slab.utilization s);
  let _ = Slab.kmalloc s ~owner:Physmem.Kernel ~size:2048 in
  check (Alcotest.float 1e-9) "half page" 0.5 (Slab.utilization s)

let slab_accounting_prop =
  QCheck.Test.make ~name:"slab: live bytes consistent over random traces" ~count:60
    QCheck.(small_list (pair (int_bound 7) bool))
    (fun ops ->
      let pm = Physmem.create ~frames:256 in
      let s = Slab.create ~mode:Slab.Secure pm in
      let live = ref [] in
      let expected = ref 0 in
      List.iter
        (fun (cls_idx, do_free) ->
          if do_free then (
            match !live with
            | (va, bytes) :: rest ->
              Slab.kfree s va;
              expected := !expected - bytes;
              live := rest
            | [] -> ())
          else
            let size = Slab.size_classes.(cls_idx) in
            match Slab.kmalloc s ~owner:(Physmem.Cgroup (1 + cls_idx)) ~size with
            | Some va ->
              expected := !expected + size;
              live := (va, size) :: !live
            | None -> ())
        ops;
      Slab.active_bytes s = !expected)

(* --- cgroups / processes / sysno --- *)

let test_cgroup () =
  let k = Kernel.create ~seed:1 () in
  let a = Kernel.spawn k ~name:"web" in
  let b = Kernel.spawn k ~name:"db" in
  check Alcotest.int "dense ids" 1 (Process.cgroup a);
  check Alcotest.int "dense ids" 2 (Process.cgroup b)

let test_process_pages () =
  let p = Process.create ~pid:1 ~asid:1 ~cgroup:1 in
  Process.map_page p ~va:0x1000 ~frame:7;
  check Alcotest.(option int) "unmap returns, any VA of the page" (Some 7)
    (Process.unmap_page p ~va:0x1234);
  check Alcotest.(option int) "gone" None (Process.unmap_page p ~va:0x1000)

let test_process_heap () =
  let p = Process.create ~pid:1 ~asid:1 ~cgroup:1 in
  let a = Process.fresh_heap_va p ~pages:2 in
  let b = Process.fresh_heap_va p ~pages:1 in
  check Alcotest.int "no overlap" (a + (2 * Layout.page_bytes)) b

let test_sysno () =
  check Alcotest.int "count" 340 Sysno.count;
  check Alcotest.string "read" "read" (Sysno.name Sysno.sys_read);
  check Alcotest.(option int) "lookup" (Some Sysno.sys_poll) (Sysno.lookup "poll");
  Alcotest.(check bool) "unknown" true (Sysno.lookup "nonexistent" = None);
  Alcotest.(check bool) "generic names" true (Sysno.name 300 = "sys_300")

(* --- callgraph --- *)

let graph = Callgraph.synthesize 42

let test_graph_shape () =
  check Alcotest.int "nodes" 28_000 (Callgraph.nnodes graph);
  for nr = 0 to Sysno.count - 1 do
    let e = Callgraph.entry_of_syscall graph nr in
    Alcotest.(check bool) "entry region" true (Callgraph.region graph e = `Entry)
  done

(* Known answers recorded on the list-of-callees representation: an MD5
   over every node's name, direct callees in order, dispatch targets, cold
   flag, depth and indirect-only flag.  A representation change that
   reorders a single edge fails here. *)
let graph_digest g =
  let b = Buffer.create (1 lsl 20) in
  let ints l = String.concat "," (List.map string_of_int l) in
  for n = 0 to Callgraph.nnodes g - 1 do
    Printf.bprintf b "%s:%s|%s|%b|%d|%b;" (Callgraph.node_name g n)
      (ints (Callgraph.direct_callees g n))
      (ints (Callgraph.indirect_targets g n))
      (Callgraph.is_cold g n) (Callgraph.depth g n) (Callgraph.indirect_only g n)
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let graph_kat =
  [
    (42, "53ee73669bef56e9c45039780896777a");
    (7, "c2a9359f95f21b56634858eb23d5123e");
    (43, "f642f046e992c575d65ddda3037a0fd7");
  ]

let test_graph_kat () =
  check Alcotest.string "seed 42" (List.assoc 42 graph_kat) (graph_digest graph);
  check Alcotest.string "seed 7" (List.assoc 7 graph_kat) (graph_digest (Callgraph.synthesize 7))

(* One shared slot: a repeated seed returns the very same value, and
   another seed evicts it, so the next request rebuilds an equal graph. *)
let test_graph_determinism () =
  let g42 = Callgraph.synthesize 42 in
  Alcotest.(check bool) "same seed, same value" true (Callgraph.synthesize 42 == g42);
  let g43 = Callgraph.synthesize 43 in
  Alcotest.(check bool) "different seed differs" true
    (List.exists
       (fun n -> Callgraph.direct_callees g42 n <> Callgraph.direct_callees g43 n)
       (List.init 500 (fun i -> i)));
  let again = Callgraph.synthesize 42 in
  Alcotest.(check bool) "evicted, then rebuilt" true (again != g42);
  check Alcotest.string "rebuilt graph" (List.assoc 42 graph_kat) (graph_digest again)

let test_graph_shared_across_domains () =
  (* Four domains ask for seeds 42, 43 and 7 at once, in a child, so this
     process can still fork. *)
  let seeds = [ 42; 43; 7 ] in
  let digests =
    Test_procpool.in_child (fun () ->
        List.init 4 (fun _ ->
            Domain.spawn (fun () ->
                List.map (fun seed -> graph_digest (Callgraph.synthesize seed)) seeds))
        |> List.map Domain.join)
  in
  check Alcotest.int "four domains answered" 4 (List.length digests);
  List.iter
    (List.iter2
       (fun seed d ->
         check Alcotest.string (Printf.sprintf "seed %d" seed) (List.assoc seed graph_kat) d)
       seeds)
    digests

let test_graph_static_reachability () =
  let entry = Callgraph.entry_of_syscall graph Sysno.sys_read in
  let reach = Callgraph.static_reachable graph [ entry ] in
  Alcotest.(check bool) "entry reachable" true (Bitset.mem reach entry);
  List.iter
    (fun v -> Alcotest.(check bool) "children reachable" true (Bitset.mem reach v))
    (Callgraph.direct_callees graph entry);
  Alcotest.(check bool) "not the whole kernel" true
    (Bitset.count reach < Callgraph.nnodes graph / 4)

(* Closure over direct edges and every indirect candidate edge: the
   speculatively reachable surface of the unprotected kernel. *)
let reachable_with_indirect g entries =
  let seen = Bitset.create (Callgraph.nnodes g) in
  let rec visit v =
    if not (Bitset.mem seen v) then begin
      Bitset.set seen v;
      List.iter visit (Callgraph.direct_callees g v);
      List.iter visit (Callgraph.indirect_targets g v)
    end
  in
  List.iter visit entries;
  seen

let test_graph_indirect_only () =
  (* Indirect-pool nodes are invisible to static analysis but reachable once
     indirect edges are followed. *)
  let entries = List.init Sysno.count (fun nr -> Callgraph.entry_of_syscall graph nr) in
  let static = Callgraph.static_reachable graph entries in
  let full = reachable_with_indirect graph entries in
  Alcotest.(check bool) "static subset of full" true
    (List.for_all (Bitset.mem full) (Bitset.elements static));
  let lo, hi = Callgraph.indirect_pool_bounds graph in
  let pool_static = ref 0 and pool_full = ref 0 in
  for n = lo to hi - 1 do
    if Bitset.mem static n then incr pool_static;
    if Bitset.mem full n then incr pool_full
  done;
  check Alcotest.int "pool invisible statically" 0 !pool_static;
  Alcotest.(check bool) "pool visible with indirect edges" true (!pool_full > 0);
  for n = lo to hi - 1 do
    if not (Bitset.mem static n) then
      Alcotest.(check bool) "indirect_only flag" true (Callgraph.indirect_only graph n)
  done

let test_graph_trace_subset () =
  let rng = Rng.create 1 in
  let installed = Callgraph.default_installed graph ~app_seed:1 in
  let entry = Callgraph.entry_of_syscall graph Sysno.sys_poll in
  let static = Callgraph.static_reachable graph [ entry ] in
  let full = reachable_with_indirect graph [ entry ] in
  for _ = 1 to 10 do
    let nodes = Callgraph.sample_trace graph rng ~syscall:Sysno.sys_poll ~installed in
    List.iter
      (fun n ->
        Alcotest.(check bool) "trace within indirect closure" true (Bitset.mem full n))
      nodes;
    ignore static
  done

let test_graph_installed_deterministic () =
  let site =
    (* find some dispatch site *)
    let rec go n =
      if Callgraph.indirect_targets graph n <> [] then n else go (n + 1)
    in
    go 0
  in
  let a = Callgraph.default_installed graph ~app_seed:5 site in
  let b = Callgraph.default_installed graph ~app_seed:5 site in
  Alcotest.(check bool) "deterministic" true (a = b);
  (match a with
  | Some t ->
    Alcotest.(check bool) "installed among candidates" true
      (List.mem t (Callgraph.indirect_targets graph site))
  | None -> Alcotest.fail "no installed target")

let test_graph_depths () =
  check Alcotest.int "entries at depth 0" 0 (Callgraph.depth graph 0);
  let lo, _ = Callgraph.indirect_pool_bounds graph in
  Alcotest.(check bool) "pool unreachable directly" true
    (Callgraph.depth graph lo = max_int)

(* --- tracing --- *)

let test_trace () =
  let t = Trace.create graph in
  Trace.record_syscall t ~ctx:1 Sysno.sys_read;
  Trace.record_nodes t ~ctx:1 [ 5; 6; 5 ];
  check Alcotest.int "nodes" 2 (Bitset.count (Trace.nodes t ~ctx:1));
  check Alcotest.(list int) "syscalls" [ Sysno.sys_read ] (Trace.syscalls_used t ~ctx:1);
  check Alcotest.int "other ctx empty" 0 (Bitset.count (Trace.nodes t ~ctx:2))

(* --- codegen --- *)

(* A bland copy-like loop: unroll 2, stride 64, no chains or branches. *)
let simple_loop =
  {
    Codegen.trips_shift = 0;
    min_trips = 1;
    unroll = 2;
    stride = 64;
    dep_chain = false;
    shared_every = 0;
    unknown_every = 0;
    store_every = 0;
    branch_mask = 0;
    alu_pad = 1;
  }

let test_codegen_bodies_valid () =
  let shapes =
    [
      Codegen.Loop simple_loop;
      Codegen.Leaf { loads = 4; stores = 2; alu = 3; shared = true };
      Codegen.Dispatch { slots = 8; post = simple_loop };
    ]
  in
  List.iter
    (fun shape ->
      let body = Codegen.gen_body shape ~tail:`Ret in
      Alcotest.(check bool) "non-empty" true (Array.length body > 0);
      Alcotest.(check bool) "fits page" true
        (Array.length body <= Layout.max_insns_per_func);
      Alcotest.(check bool) "ends with ret" true
        (body.(Array.length body - 1) = Pv_isa.Insn.Ret))
    shapes

let test_codegen_loop_runs () =
  (* A generated loop body must execute architecturally and terminate. *)
  let body = Codegen.gen_body (Codegen.Loop simple_loop) ~tail:`Ret in
  let main =
    Array.append
      [|
        Pv_isa.Insn.Limm (8, Layout.direct_map_va 0);
        Pv_isa.Insn.Limm (9, Layout.direct_map_va 4096);
        Pv_isa.Insn.Limm (10, Layout.kernel_global_base);
        Pv_isa.Insn.Limm (11, 16);
        Pv_isa.Insn.Limm (12, 1);
        Pv_isa.Insn.Limm (13, Layout.direct_map_va 8192);
        Pv_isa.Insn.Call 1;
      |]
      [| Pv_isa.Insn.Halt |]
  in
  let prog =
    Pv_isa.Program.of_funcs
      [
        { Pv_isa.Program.fid = 0; name = "m"; space = Layout.Kernel; body = main };
        { Pv_isa.Program.fid = 1; name = "loop"; space = Layout.Kernel; body };
      ]
  in
  let mem = Pv_isa.Mem.create () in
  Codegen.seed_page mem (Rng.create 1) (Layout.direct_map_va 0);
  let r = Pv_isa.Iss.run ~asid:1 ~mem prog ~start:0 in
  Alcotest.(check bool) "halts" true (r.Pv_isa.Iss.outcome = Pv_isa.Iss.Halted)

let test_codegen_pow2_validation () =
  Alcotest.(check bool) "bad shared_every rejected" true
    (try
       ignore
         (Codegen.gen_body
            (Codegen.Loop { simple_loop with Codegen.shared_every = 3 })
            ~tail:`Ret);
       false
     with Invalid_argument _ -> true)

(* --- kernel facade + kimage --- *)

let test_kernel_spawn () =
  let k = Kernel.create ~seed:1 () in
  let p = Kernel.spawn k ~name:"app" in
  Alcotest.(check bool) "has working set" true (Array.length (Process.data_frames p) > 0);
  Array.iter
    (fun f ->
      Alcotest.(check bool) "working set owned by cgroup" true
        (Physmem.owner_of (Kernel.phys k) f = Some (Physmem.Cgroup (Process.cgroup p))))
    (Process.data_frames p)

let test_kernel_mmap_ownership () =
  let k = Kernel.create ~seed:1 () in
  let p = Kernel.spawn k ~name:"app" in
  let eff = Kernel.exec_syscall k p ~nr:Sysno.sys_mmap ~args:[| 4 |] in
  check Alcotest.int "four frames" 4 (List.length eff.Kernel.new_frames);
  List.iter
    (fun f ->
      Alcotest.(check bool) "owned by caller" true
        (Physmem.owner_of (Kernel.phys k) f = Some (Physmem.Cgroup (Process.cgroup p))))
    eff.Kernel.new_frames;
  let eff2 = Kernel.exec_syscall k p ~nr:Sysno.sys_munmap ~args:[||] in
  check Alcotest.int "frames freed" 4 (List.length eff2.Kernel.freed_frames);
  List.iter
    (fun f ->
      Alcotest.(check bool) "free after munmap" true
        (Physmem.owner_of (Kernel.phys k) f = None))
    eff2.Kernel.freed_frames

let test_kernel_trace_feeds () =
  let k = Kernel.create ~seed:1 () in
  let p = Kernel.spawn k ~name:"app" in
  ignore (Kernel.exec_syscall k p ~nr:Sysno.sys_read ~args:[| 4096 |]);
  let ctx = Process.cgroup p in
  Alcotest.(check bool) "nodes traced" true
    (Bitset.count (Trace.nodes (Kernel.trace k) ~ctx) > 0);
  check Alcotest.(list int) "syscall recorded" [ Sysno.sys_read ]
    (Trace.syscalls_used (Kernel.trace k) ~ctx)

let test_kimage_structure () =
  let k = Kernel.create ~seed:1 () in
  let syscalls = [ Sysno.sys_read; Sysno.sys_poll; Sysno.sys_getpid ] in
  let img = Kimage.build (Kernel.graph k) ~seed:1 ~fid_base:0 ~syscalls in
  check Alcotest.(list int) "realized" (List.sort compare syscalls)
    (Kimage.realized_syscalls img);
  let funcs = Kimage.funcs img in
  Alcotest.(check bool) "functions generated" true (List.length funcs > 5);
  List.iteri
    (fun i f -> check Alcotest.int "dense fids" i f.Pv_isa.Program.fid)
    funcs;
  (* every realized syscall has an entry whose node maps back *)
  List.iter
    (fun nr ->
      match Kimage.desc img nr with
      | Some d ->
        check Alcotest.(option int) "fid/node roundtrip" (Some d.Kimage.entry_node)
          (Kimage.node_of_fid img d.Kimage.entry_fid);
        Alcotest.(check bool) "helpers exist" true (d.Kimage.helper_fids <> [])
      | None -> Alcotest.fail "missing desc")
    syscalls;
  (* poll gets a dispatch table; getpid does not *)
  let poll = Option.get (Kimage.desc img Sysno.sys_poll) in
  check Alcotest.int "table slots" Kimage.table_slots (Array.length poll.Kimage.table_nodes);
  let getpid = Option.get (Kimage.desc img Sysno.sys_getpid) in
  check Alcotest.int "no table" 0 (Array.length getpid.Kimage.table_nodes)

let test_kimage_program_valid () =
  let k = Kernel.create ~seed:1 () in
  let img =
    Kimage.build (Kernel.graph k) ~seed:1 ~fid_base:0
      ~syscalls:Pv_workloads.Lebench.all_syscalls
  in
  (* [of_funcs] re-checks every structural invariant and raises on a
     violation. *)
  let prog = Pv_isa.Program.of_funcs (Kimage.funcs img) in
  check Alcotest.int "every function" (List.length (Kimage.funcs img)) (Pv_isa.Program.length prog)

(* Every image of seeds 1..200 over both syscall sets builds: [Kimage.build]
   rejects one in which a syscall reaches an indirect call with no dispatch
   table. *)
let test_kimage_tables_all_seeds () =
  List.iter
    (fun syscalls ->
      for seed = 1 to 200 do
        match Kimage.build (Callgraph.synthesize seed) ~seed ~fid_base:0 ~syscalls with
        | _ -> ()
        | exception Invalid_argument msg -> Alcotest.failf "seed %d: %s" seed msg
      done)
    [ Pv_workloads.Lebench.all_syscalls; Pv_workloads.Apps.all_syscalls ]

let suite =
  [
    ( "kernel.buddy",
      [
        Alcotest.test_case "alloc/free/owner" `Quick test_buddy_basic;
        Alcotest.test_case "alignment" `Quick test_buddy_alignment;
        Alcotest.test_case "exhaustion" `Quick test_buddy_exhaustion;
        Alcotest.test_case "coalescing" `Quick test_buddy_coalescing;
        Alcotest.test_case "double free" `Quick test_buddy_double_free;
        Alcotest.test_case "block ownership" `Quick test_buddy_owner_per_block;
        Alcotest.test_case "frame VA roundtrip" `Quick test_frame_va_roundtrip;
        QCheck_alcotest.to_alcotest buddy_trace_prop;
      ] );
    ( "kernel.slab",
      [
        Alcotest.test_case "class rounding" `Quick test_slab_class_rounding;
        Alcotest.test_case "secure isolation" `Quick test_slab_secure_isolation;
        Alcotest.test_case "shared collocates" `Quick test_slab_shared_collocates;
        Alcotest.test_case "page return" `Quick test_slab_page_return;
        Alcotest.test_case "double free" `Quick test_slab_double_free;
        Alcotest.test_case "oversize" `Quick test_slab_oversize;
        Alcotest.test_case "utilization" `Quick test_slab_utilization;
        QCheck_alcotest.to_alcotest slab_accounting_prop;
      ] );
    ( "kernel.procs",
      [
        Alcotest.test_case "cgroups" `Quick test_cgroup;
        Alcotest.test_case "process pages" `Quick test_process_pages;
        Alcotest.test_case "process heap" `Quick test_process_heap;
        Alcotest.test_case "syscall table" `Quick test_sysno;
      ] );
    ( "kernel.callgraph",
      [
        Alcotest.test_case "shape" `Quick test_graph_shape;
        Alcotest.test_case "known answers" `Quick test_graph_kat;
        Alcotest.test_case "determinism" `Quick test_graph_determinism;
        Alcotest.test_case "shared across domains" `Quick test_graph_shared_across_domains;
        Alcotest.test_case "static reachability" `Quick test_graph_static_reachability;
        Alcotest.test_case "indirect pool invisibility" `Quick test_graph_indirect_only;
        Alcotest.test_case "trace subset" `Quick test_graph_trace_subset;
        Alcotest.test_case "installed determinism" `Quick test_graph_installed_deterministic;
        Alcotest.test_case "depths" `Quick test_graph_depths;
      ] );
    ("kernel.trace", [ Alcotest.test_case "recording" `Quick test_trace ]);
    ( "kernel.codegen",
      [
        Alcotest.test_case "bodies valid" `Quick test_codegen_bodies_valid;
        Alcotest.test_case "loop terminates" `Quick test_codegen_loop_runs;
        Alcotest.test_case "pow2 validation" `Quick test_codegen_pow2_validation;
      ] );
    ( "kernel.facade",
      [
        Alcotest.test_case "spawn" `Quick test_kernel_spawn;
        Alcotest.test_case "mmap ownership" `Quick test_kernel_mmap_ownership;
        Alcotest.test_case "tracing" `Quick test_kernel_trace_feeds;
      ] );
    ( "kernel.kimage",
      [
        Alcotest.test_case "structure" `Quick test_kimage_structure;
        Alcotest.test_case "program validates" `Quick test_kimage_program_valid;
        Alcotest.test_case "seeds 1..200: every dispatch has a table" `Slow
          test_kimage_tables_all_seeds;
      ] );
  ]
