(* Tests for the Perspective core: view caches, DSVMT, ISVs, the view
   manager, the defense guards and the spot-mitigation models. *)

module Svcache = Perspective.Svcache
module Dsvmt = Perspective.Dsvmt
module Isv = Perspective.Isv
module View_manager = Perspective.View_manager
module Defense = Perspective.Defense
module Spot = Perspective.Spot
module Guard = Pv_uarch.Guard
module Layout = Pv_isa.Layout
module Bitset = Pv_util.Bitset

let check = Alcotest.check

(* --- Svcache --- *)

let test_svcache_miss_install_hit () =
  let c = Svcache.create ~name:"t" () in
  Alcotest.(check bool) "miss" true (Svcache.lookup c ~asid:1 100 = Svcache.Miss);
  Svcache.install c ~asid:1 100 true;
  Alcotest.(check bool) "hit true" true (Svcache.lookup c ~asid:1 100 = Svcache.Hit true);
  Svcache.install c ~asid:1 101 false;
  Alcotest.(check bool) "hit false" true (Svcache.lookup c ~asid:1 101 = Svcache.Hit false)

let test_svcache_asid_tagged () =
  let c = Svcache.create ~name:"t" () in
  Svcache.install c ~asid:1 100 true;
  Alcotest.(check bool) "other asid misses" true (Svcache.lookup c ~asid:2 100 = Svcache.Miss);
  Svcache.install c ~asid:2 100 false;
  Alcotest.(check bool) "both coexist" true
    (Svcache.lookup c ~asid:1 100 = Svcache.Hit true
    && Svcache.lookup c ~asid:2 100 = Svcache.Hit false)

let test_svcache_capacity_eviction () =
  let c = Svcache.create ~entries:8 ~ways:2 ~name:"t" () in
  (* 4 sets x 2 ways; keys k and k+4n map to the same set. *)
  Svcache.install c ~asid:1 0 true;
  Svcache.install c ~asid:1 4 true;
  Svcache.install c ~asid:1 8 true (* evicts key 0 (LRU) *);
  Alcotest.(check bool) "victim evicted" true (Svcache.lookup c ~asid:1 0 = Svcache.Miss);
  Alcotest.(check bool) "recent kept" true (Svcache.lookup c ~asid:1 8 = Svcache.Hit true)

let test_svcache_touch_promotes () =
  let c = Svcache.create ~entries:8 ~ways:2 ~name:"t" () in
  Svcache.install c ~asid:1 0 true;
  Svcache.install c ~asid:1 4 true;
  Svcache.touch c ~asid:1 0 (* deferred VP promotion *);
  Svcache.install c ~asid:1 8 true (* now 4 is the LRU victim *);
  Alcotest.(check bool) "promoted survives" true (Svcache.lookup c ~asid:1 0 = Svcache.Hit true);
  Alcotest.(check bool) "unpromoted evicted" true (Svcache.lookup c ~asid:1 4 = Svcache.Miss)

(* The frozen-replacement contract: a speculative install must leave the
   set's LRU order exactly as a non-speculative observer would see it, or
   the replacement state itself becomes a transmitter before the access
   reaches its Visibility Point. *)
let test_svcache_speculative_fill_stays_victim () =
  let c = Svcache.create ~entries:8 ~ways:2 ~name:"t" () in
  Svcache.install c ~asid:1 0 true;
  Svcache.install c ~asid:1 4 true;
  (* speculative fill evicts key 0 (LRU) but inherits its stamp... *)
  Svcache.install ~speculative:true c ~asid:1 8 true;
  Alcotest.(check bool) "filled line is usable" true
    (Svcache.lookup c ~asid:1 8 = Svcache.Hit true);
  (* ...so the next demand install victimizes the speculative line, not 4 *)
  Svcache.install c ~asid:1 12 true;
  Alcotest.(check bool) "unpromoted speculative line re-evicted" true
    (Svcache.lookup c ~asid:1 8 = Svcache.Miss);
  Alcotest.(check bool) "architectural line untouched" true
    (Svcache.lookup c ~asid:1 4 = Svcache.Hit true);
  Alcotest.(check bool) "new line present" true
    (Svcache.lookup c ~asid:1 12 = Svcache.Hit true)

let test_svcache_touch_promotes_speculative_fill () =
  let c = Svcache.create ~entries:8 ~ways:2 ~name:"t" () in
  Svcache.install c ~asid:1 0 true;
  Svcache.install c ~asid:1 4 true;
  Svcache.install ~speculative:true c ~asid:1 8 true;
  Svcache.touch c ~asid:1 8 (* the access reached its VP *);
  Svcache.install c ~asid:1 12 true (* now 4 is the LRU victim *);
  Alcotest.(check bool) "promoted speculative line survives" true
    (Svcache.lookup c ~asid:1 8 = Svcache.Hit true);
  Alcotest.(check bool) "LRU architectural line evicted instead" true
    (Svcache.lookup c ~asid:1 4 = Svcache.Miss)

let test_svcache_speculative_hit_does_not_promote () =
  let c = Svcache.create ~entries:8 ~ways:2 ~name:"t" () in
  Svcache.install c ~asid:1 0 true;
  Svcache.install c ~asid:1 4 true;
  (* a speculative re-install on a resident key updates the bit but must
     not refresh its recency *)
  Svcache.install ~speculative:true c ~asid:1 0 false;
  Alcotest.(check bool) "bit updated" true (Svcache.lookup c ~asid:1 0 = Svcache.Hit false);
  Svcache.install c ~asid:1 8 true;
  Alcotest.(check bool) "still the LRU victim" true
    (Svcache.lookup c ~asid:1 0 = Svcache.Miss);
  Alcotest.(check bool) "younger line kept" true
    (Svcache.lookup c ~asid:1 4 = Svcache.Hit true)

let test_svcache_invalidate () =
  let c = Svcache.create ~name:"t" () in
  Svcache.install c ~asid:1 100 true;
  Svcache.install c ~asid:2 100 true;
  Svcache.invalidate c 100;
  Alcotest.(check bool) "all asids dropped" true
    (Svcache.lookup c ~asid:1 100 = Svcache.Miss
    && Svcache.lookup c ~asid:2 100 = Svcache.Miss)

let test_svcache_stats () =
  let c = Svcache.create ~name:"t" () in
  Alcotest.(check (option (float 1e-9)))
    "untouched cache has no rate" None (Svcache.hit_rate c);
  ignore (Svcache.lookup c ~asid:1 5);
  Svcache.install c ~asid:1 5 true;
  ignore (Svcache.lookup c ~asid:1 5);
  check Alcotest.int "hits" 1 (Svcache.hits c);
  check Alcotest.int "misses" 1 (Svcache.accesses c - Svcache.hits c);
  check Alcotest.int "accesses" 2 (Svcache.accesses c);
  Alcotest.(check (option (float 1e-9))) "rate" (Some 0.5) (Svcache.hit_rate c);
  (* An all-miss cache must be distinguishable from an untouched one. *)
  let m = Svcache.create ~name:"m" () in
  ignore (Svcache.lookup m ~asid:1 7);
  Alcotest.(check (option (float 1e-9)))
    "100%-miss is Some 0." (Some 0.0) (Svcache.hit_rate m)

(* --- DSVMT --- *)

let test_dsvmt_walk_oracle () =
  let calls = ref 0 in
  let d =
    Dsvmt.create ~oracle:(fun ~page ->
        incr calls;
        page mod 2 = 0)
  in
  Alcotest.(check bool) "even page in" true (Dsvmt.walk d ~page:4);
  Alcotest.(check bool) "odd page out" false (Dsvmt.walk d ~page:5);
  check Alcotest.int "oracle consulted" 2 !calls;
  ignore (Dsvmt.walk d ~page:4);
  check Alcotest.int "cached after populate" 2 !calls

let test_dsvmt_invalidate () =
  let flips = ref true in
  let d = Dsvmt.create ~oracle:(fun ~page:_ -> !flips) in
  Alcotest.(check bool) "first" true (Dsvmt.walk d ~page:7);
  flips := false;
  Alcotest.(check bool) "stale until invalidated" true (Dsvmt.walk d ~page:7);
  Dsvmt.invalidate_page d ~page:7;
  Alcotest.(check bool) "fresh after invalidate" false (Dsvmt.walk d ~page:7)

let test_dsvmt_distant_pages () =
  let d = Dsvmt.create ~oracle:(fun ~page -> page > 1_000_000) in
  Alcotest.(check bool) "low" false (Dsvmt.walk d ~page:3);
  Alcotest.(check bool) "high (different L1 region)" true (Dsvmt.walk d ~page:2_000_000)

(* Oracle-model property: the DSVMT must agree with a plain map under any
   interleaving of walks, ownership changes and invalidations. *)
let dsvmt_oracle_prop =
  QCheck.Test.make ~name:"DSVMT agrees with a reference map" ~count:150
    QCheck.(small_list (pair (int_bound 2) (int_bound 2000)))
    (fun ops ->
      let backing = Hashtbl.create 32 in
      let oracle ~page = Option.value ~default:(page mod 3 = 0) (Hashtbl.find_opt backing page) in
      let d = Dsvmt.create ~oracle in
      let model = Hashtbl.create 32 in
      List.for_all
        (fun (op, page) ->
          match op with
          | 0 ->
            (* walk: must match the model (or the oracle on first touch) *)
            let expected =
              match Hashtbl.find_opt model page with
              | Some b -> b
              | None ->
                let b = oracle ~page in
                Hashtbl.replace model page b;
                b
            in
            Dsvmt.walk d ~page = expected
          | 1 ->
            (* The page changes owner; the table may serve the stale bit
               until the page is invalidated. *)
            Hashtbl.replace backing page (page mod 2 = 0);
            true
          | _ ->
            Dsvmt.invalidate_page d ~page;
            Hashtbl.remove model page;
            true)
        ops)

(* Oracle-model property: the ASID-tagged view cache never returns a wrong
   bit - a Hit must match the last installed value for that (asid, key). *)
let svcache_oracle_prop =
  QCheck.Test.make ~name:"Svcache hits match the last install" ~count:150
    QCheck.(small_list (triple (int_bound 1) (int_bound 2) (int_bound 40)))
    (fun ops ->
      let c = Svcache.create ~entries:16 ~ways:2 ~name:"prop" () in
      let model = Hashtbl.create 32 in
      List.for_all
        (fun (op, asid, key) ->
          if op = 0 then begin
            let bit = key land 1 = 0 in
            Svcache.install c ~asid key bit;
            Hashtbl.replace model (asid, key) bit;
            true
          end
          else
            match Svcache.lookup c ~asid key with
            | Svcache.Miss -> true (* capacity evictions are always legal *)
            | Svcache.Hit b -> (
              match Hashtbl.find_opt model (asid, key) with
              | Some expected -> b = expected
              | None -> false (* hit for something never installed *)))
        ops)

(* --- ISV pages --- *)

let test_isv_pages_demand_population () =
  let p = Perspective.Isv_pages.create () in
  let calls = ref 0 in
  let member () = incr calls; true in
  let va = Layout.insn_va Layout.Kernel 3 7 in
  Alcotest.(check bool) "bit read" true
    (Perspective.Isv_pages.lookup p ~ctx:1 ~insn_va:va ~member);
  check Alcotest.int "one page" 1 (Perspective.Isv_pages.populated_pages p ~ctx:1);
  check Alcotest.int "128 bytes per page" 128 (Perspective.Isv_pages.metadata_bytes p ~ctx:1);
  ignore (Perspective.Isv_pages.lookup p ~ctx:1 ~insn_va:va ~member);
  check Alcotest.int "bit cached" 1 !calls;
  ignore (Perspective.Isv_pages.lookup p ~ctx:1 ~insn_va:(va + 4) ~member);
  check Alcotest.int "same page, new slot" 2 !calls;
  check Alcotest.int "still one page" 1 (Perspective.Isv_pages.populated_pages p ~ctx:1)

let test_isv_pages_per_context () =
  let p = Perspective.Isv_pages.create () in
  let va = Layout.insn_va Layout.Kernel 0 0 in
  ignore (Perspective.Isv_pages.lookup p ~ctx:1 ~insn_va:va ~member:(fun () -> true));
  ignore (Perspective.Isv_pages.lookup p ~ctx:2 ~insn_va:va ~member:(fun () -> false));
  Alcotest.(check bool) "contexts independent" true
    (Perspective.Isv_pages.lookup p ~ctx:1 ~insn_va:va ~member:(fun () -> false)
    && not (Perspective.Isv_pages.lookup p ~ctx:2 ~insn_va:va ~member:(fun () -> true)))

let test_isv_pages_invalidate () =
  let p = Perspective.Isv_pages.create () in
  let va = Layout.insn_va Layout.Kernel 5 0 in
  ignore (Perspective.Isv_pages.lookup p ~ctx:1 ~insn_va:va ~member:(fun () -> true));
  Perspective.Isv_pages.invalidate_page p ~code_page_va:va;
  check Alcotest.int "page dropped" 0 (Perspective.Isv_pages.populated_pages p ~ctx:1);
  Alcotest.(check bool) "re-consults membership" false
    (Perspective.Isv_pages.lookup p ~ctx:1 ~insn_va:va ~member:(fun () -> false))

(* --- ISV --- *)

let test_isv_membership () =
  let v = Isv.of_nodes (Bitset.of_list 10 [ 1; 2; 3 ]) in
  Alcotest.(check bool) "member" true (Isv.member v 2);
  Alcotest.(check bool) "not member" false (Isv.member v 5);
  check Alcotest.int "size" 3 (Isv.size v);
  check (Alcotest.float 1e-9) "reduction" 70.0 (Isv.reduction_vs_kernel v)

let test_isv_all () =
  let v = Isv.all ~nnodes:5 in
  check Alcotest.int "full" 5 (Isv.size v)

let test_isv_patching () =
  let v = Isv.of_nodes (Bitset.of_list 10 [ 1; 2; 3 ]) in
  Isv.exclude v 2 (* swift gadget patch *);
  Alcotest.(check bool) "excluded" false (Isv.member v 2);
  check Alcotest.(list int) "the rest stays" [ 1; 3 ] (Bitset.elements (Isv.nodes v))

let test_isv_source_isolation () =
  let b = Bitset.of_list 10 [ 1 ] in
  let v = Isv.of_nodes b in
  Bitset.set b 5;
  Alcotest.(check bool) "source mutation isolated" false (Isv.member v 5)

(* --- view manager --- *)

let test_view_manager () =
  let vm =
    View_manager.create ~nnodes:10 ~oracle:(fun ~ctx ~page -> page mod 10 = ctx)
  in
  let isv = Isv.of_nodes (Bitset.of_list 10 [ 1 ]) in
  View_manager.register vm ~asid:7 ~ctx:3 ~isv;
  check Alcotest.(option int) "ctx resolution" (Some 3) (View_manager.ctx_of_asid vm 7);
  Alcotest.(check bool) "isv via ctx" true (View_manager.isv_of_ctx vm 3 <> None);
  let d = View_manager.dsvmt vm ~ctx:3 in
  Alcotest.(check bool) "oracle wired with ctx" true (Dsvmt.walk d ~page:13);
  Alcotest.(check bool) "and rejects others" false (Dsvmt.walk d ~page:14)

let test_view_manager_invalidate () =
  let bit = ref true in
  let vm = View_manager.create ~nnodes:4 ~oracle:(fun ~ctx:_ ~page:_ -> !bit) in
  let d = View_manager.dsvmt vm ~ctx:1 in
  Alcotest.(check bool) "initial" true (Dsvmt.walk d ~page:3);
  bit := false;
  View_manager.invalidate_page vm ~page:3;
  Alcotest.(check bool) "refreshed everywhere" false (Dsvmt.walk d ~page:3)

(* --- defense guards --- *)

let q ?(kernel = true) ?(spec = true) ?(l1 = false) ?(tainted = false) ?(asid = 1)
    ?(fid = 0) ~addr () =
  {
    Guard.insn_va = Layout.insn_va Layout.Kernel fid 0;
    fid;
    addr;
    asid;
    kernel_mode = kernel;
    speculative = spec;
    l1_hit = l1;
    tainted;
  }

let make_perspective ~isv_nodes ~owned_page =
  let vm =
    View_manager.create ~nnodes:4 ~oracle:(fun ~ctx ~page -> ctx = 1 && page = owned_page)
  in
  View_manager.register vm ~asid:1 ~ctx:1 ~isv:(Isv.of_nodes isv_nodes);
  Defense.build ~scheme:(Defense.Perspective Isv.Dynamic) ~vm
    ~node_of_fid:(fun fid -> if fid < 4 then Some fid else None)
    ~block_unknown:true ()

let test_guard_unsafe_fence_dom_stt () =
  let vm = View_manager.create ~nnodes:1 ~oracle:(fun ~ctx:_ ~page:_ -> false) in
  let build s = Defense.guard (Defense.build ~scheme:s ~vm ~node_of_fid:(fun _ -> None) ~block_unknown:true ()) in
  let unsafe = build Defense.Unsafe in
  let fence = build Defense.Fence in
  let dom = build Defense.Dom in
  let stt = build Defense.Stt in
  let addr = Layout.direct_map_va 0 in
  Alcotest.(check bool) "unsafe allows" true
    (unsafe.Guard.check (q ~addr ()) = Guard.Allow);
  Alcotest.(check bool) "fence blocks speculative" true
    (fence.Guard.check (q ~addr ()) = Guard.Block Guard.Baseline);
  Alcotest.(check bool) "fence allows non-speculative" true
    (fence.Guard.check (q ~spec:false ~addr ()) = Guard.Allow);
  Alcotest.(check bool) "dom blocks miss" true
    (dom.Guard.check (q ~l1:false ~addr ()) = Guard.Block Guard.Baseline);
  Alcotest.(check bool) "dom allows hit" true (dom.Guard.check (q ~l1:true ~addr ()) = Guard.Allow);
  Alcotest.(check bool) "stt blocks tainted" true
    (stt.Guard.check (q ~tainted:true ~addr ()) = Guard.Block Guard.Baseline);
  Alcotest.(check bool) "stt allows untainted" true (stt.Guard.check (q ~addr ()) = Guard.Allow)

let test_guard_perspective_isv () =
  let d = make_perspective ~isv_nodes:(Bitset.of_list 4 [ 0 ]) ~owned_page:5 in
  let g = Defense.guard d in
  let owned = Layout.direct_map_va (5 * Layout.page_bytes) in
  (* fid 1 outside the ISV: blocked with source Isv (after the compulsory
     cache-miss block). *)
  Alcotest.(check bool) "first access: miss blocks" true
    (g.Guard.check (q ~fid:1 ~addr:owned ()) = Guard.Block Guard.Isv);
  Alcotest.(check bool) "steady state: still Isv-blocked" true
    (g.Guard.check (q ~fid:1 ~addr:owned ()) = Guard.Block Guard.Isv);
  (* fid 0 inside the ISV: the compulsory ISV-cache miss blocks first, then
     the DSV-cache miss, then the access proceeds. *)
  Alcotest.(check bool) "isv miss blocks" true
    (g.Guard.check (q ~fid:0 ~addr:owned ()) = Guard.Block Guard.Isv);
  Alcotest.(check bool) "dsv miss blocks" true
    (g.Guard.check (q ~fid:0 ~addr:owned ()) = Guard.Block Guard.Dsv);
  Alcotest.(check bool) "steady state: allowed" true
    (g.Guard.check (q ~fid:0 ~addr:owned ()) = Guard.Allow)

let test_guard_perspective_dsv_ownership () =
  let d = make_perspective ~isv_nodes:(Bitset.of_list 4 [ 0; 1; 2; 3 ]) ~owned_page:5 in
  let g = Defense.guard d in
  let foreign = Layout.direct_map_va (9 * Layout.page_bytes) in
  ignore (g.Guard.check (q ~fid:0 ~addr:foreign ())) (* warm both caches *);
  ignore (g.Guard.check (q ~fid:0 ~addr:foreign ()));
  Alcotest.(check bool) "foreign data stays blocked" true
    (g.Guard.check (q ~fid:0 ~addr:foreign ()) = Guard.Block Guard.Dsv)

let test_guard_perspective_unknown () =
  let d = make_perspective ~isv_nodes:(Bitset.of_list 4 [ 0 ]) ~owned_page:5 in
  let g = Defense.guard d in
  ignore (g.Guard.check (q ~fid:0 ~addr:Layout.kernel_global_base ()));
  Alcotest.(check bool) "unknown blocked" true
    (g.Guard.check (q ~fid:0 ~addr:Layout.kernel_global_base ()) = Guard.Block Guard.Dsv)

let test_guard_perspective_gates () =
  let d = make_perspective ~isv_nodes:(Bitset.of_list 4 [ 0 ]) ~owned_page:5 in
  let g = Defense.guard d in
  let addr = Layout.direct_map_va 0 in
  Alcotest.(check bool) "user mode ignored" true
    (g.Guard.check (q ~kernel:false ~addr ()) = Guard.Allow);
  Alcotest.(check bool) "non-speculative ignored" true
    (g.Guard.check (q ~spec:false ~addr ()) = Guard.Allow)

let test_guard_unregistered_context () =
  let d = make_perspective ~isv_nodes:(Bitset.of_list 4 [ 0 ]) ~owned_page:5 in
  let g = Defense.guard d in
  Alcotest.(check bool) "unknown asid fenced" true
    (g.Guard.check (q ~asid:9 ~addr:(Layout.direct_map_va 0) ()) = Guard.Block Guard.Isv)

let test_guard_note_freed () =
  let owned = ref true in
  let vm = View_manager.create ~nnodes:4 ~oracle:(fun ~ctx:_ ~page:_ -> !owned) in
  View_manager.register vm ~asid:1 ~ctx:1
    ~isv:(Isv.of_nodes (Bitset.of_list 4 [ 0 ]));
  let d =
    Defense.build ~scheme:(Defense.Perspective Isv.Dynamic) ~vm
      ~node_of_fid:(fun _ -> Some 0) ~block_unknown:true ()
  in
  let g = Defense.guard d in
  let addr = Layout.direct_map_va (7 * Layout.page_bytes) in
  ignore (g.Guard.check (q ~addr ())) (* ISV-cache fill *);
  ignore (g.Guard.check (q ~addr ())) (* DSV walk: in view *);
  Alcotest.(check bool) "allowed while owned" true (g.Guard.check (q ~addr ()) = Guard.Allow);
  owned := false;
  Defense.note_freed_page d ~page:7;
  ignore (g.Guard.check (q ~addr ())) (* re-walk after invalidation *);
  Alcotest.(check bool) "blocked after free" true
    (g.Guard.check (q ~addr ()) = Guard.Block Guard.Dsv)

let test_guard_isv_plus_exclusion () =
  (* Runtime patching: excluding a function flips its decision to Block, but
     only after the stale ISV-cache entry for its line is invalidated. *)
  let vm = View_manager.create ~nnodes:4 ~oracle:(fun ~ctx:_ ~page:_ -> true) in
  let isv = Isv.of_nodes (Bitset.of_list 4 [ 0; 1 ]) in
  View_manager.register vm ~asid:1 ~ctx:1 ~isv;
  let d =
    Defense.build ~scheme:(Defense.Perspective Isv.Plus) ~vm
      ~node_of_fid:(fun fid -> Some fid) ~block_unknown:true ()
  in
  let g = Defense.guard d in
  let addr = Layout.direct_map_va 0 in
  ignore (g.Guard.check (q ~fid:1 ~addr ()));
  ignore (g.Guard.check (q ~fid:1 ~addr ()));
  Alcotest.(check bool) "initially allowed" true (g.Guard.check (q ~fid:1 ~addr ()) = Guard.Allow);
  Isv.exclude isv 1;
  Defense.note_view_changed d ~insn_va:(Layout.insn_va Layout.Kernel 1 0);
  ignore (g.Guard.check (q ~fid:1 ~addr ()));
  Alcotest.(check bool) "blocked after patch" true
    (g.Guard.check (q ~fid:1 ~addr ()) = Guard.Block Guard.Isv)

let test_scheme_names () =
  check Alcotest.string "perspective" "PERSPECTIVE"
    (Defense.scheme_name (Defense.Perspective Isv.Dynamic));
  check Alcotest.string "plus" "PERSPECTIVE++"
    (Defense.scheme_name (Defense.Perspective Isv.Plus));
  check Alcotest.(list string) "every scheme, in PoC order"
    [ "UNSAFE"; "FENCE"; "DOM"; "STT"; "PERSPECTIVE-ALL"; "PERSPECTIVE-STATIC"; "PERSPECTIVE";
      "PERSPECTIVE++"; "SAFESPEC"; "SPECBOX" ]
    (List.map Defense.scheme_name Defense.all_schemes)

let test_spot_transforms () =
  let base = Pv_uarch.Pipeline.default_config in
  let k = Spot.kpti_retpoline base in
  Alcotest.(check bool) "kpti entry cost" true
    (k.Pv_uarch.Pipeline.kernel_entry_cycles > base.Pv_uarch.Pipeline.kernel_entry_cycles);
  let r = Spot.retpoline base in
  Alcotest.(check bool) "retpoline flag" true r.Pv_uarch.Pipeline.retpoline;
  let kr = Spot.kpti_retpoline base in
  Alcotest.(check bool) "combined" true
    (kr.Pv_uarch.Pipeline.retpoline
    && kr.Pv_uarch.Pipeline.kernel_exit_cycles > base.Pv_uarch.Pipeline.kernel_exit_cycles)

let suite =
  [
    ( "core.svcache",
      [
        Alcotest.test_case "miss/install/hit" `Quick test_svcache_miss_install_hit;
        Alcotest.test_case "asid tagging" `Quick test_svcache_asid_tagged;
        Alcotest.test_case "capacity eviction" `Quick test_svcache_capacity_eviction;
        Alcotest.test_case "VP touch promotes" `Quick test_svcache_touch_promotes;
        Alcotest.test_case "speculative fill stays the victim" `Quick
          test_svcache_speculative_fill_stays_victim;
        Alcotest.test_case "VP touch promotes a speculative fill" `Quick
          test_svcache_touch_promotes_speculative_fill;
        Alcotest.test_case "speculative hit does not promote" `Quick
          test_svcache_speculative_hit_does_not_promote;
        Alcotest.test_case "invalidate" `Quick test_svcache_invalidate;
        Alcotest.test_case "stats" `Quick test_svcache_stats;
        QCheck_alcotest.to_alcotest svcache_oracle_prop;
      ] );
    ( "core.dsvmt",
      [
        QCheck_alcotest.to_alcotest dsvmt_oracle_prop;
        Alcotest.test_case "lazy walk" `Quick test_dsvmt_walk_oracle;
        Alcotest.test_case "invalidate" `Quick test_dsvmt_invalidate;
        Alcotest.test_case "distant pages" `Quick test_dsvmt_distant_pages;
      ] );
    ( "core.isv_pages",
      [
        Alcotest.test_case "demand population" `Quick test_isv_pages_demand_population;
        Alcotest.test_case "per-context" `Quick test_isv_pages_per_context;
        Alcotest.test_case "invalidate" `Quick test_isv_pages_invalidate;
      ] );
    ( "core.isv",
      [
        Alcotest.test_case "membership" `Quick test_isv_membership;
        Alcotest.test_case "all" `Quick test_isv_all;
        Alcotest.test_case "patching" `Quick test_isv_patching;
        Alcotest.test_case "source isolation" `Quick test_isv_source_isolation;
      ] );
    ( "core.view_manager",
      [
        Alcotest.test_case "registry" `Quick test_view_manager;
        Alcotest.test_case "invalidation" `Quick test_view_manager_invalidate;
      ] );
    ( "core.defense",
      [
        Alcotest.test_case "baseline guards" `Quick test_guard_unsafe_fence_dom_stt;
        Alcotest.test_case "ISV gate" `Quick test_guard_perspective_isv;
        Alcotest.test_case "DSV ownership" `Quick test_guard_perspective_dsv_ownership;
        Alcotest.test_case "unknown allocations" `Quick test_guard_perspective_unknown;
        Alcotest.test_case "mode/speculation gates" `Quick test_guard_perspective_gates;
        Alcotest.test_case "unregistered context" `Quick test_guard_unregistered_context;
        Alcotest.test_case "freed pages invalidate" `Quick test_guard_note_freed;
        Alcotest.test_case "runtime gadget patching" `Quick test_guard_isv_plus_exclusion;
        Alcotest.test_case "scheme names" `Quick test_scheme_names;
      ] );
    ("core.spot", [ Alcotest.test_case "config transforms" `Quick test_spot_transforms ]);
  ]
