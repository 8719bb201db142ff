module Tab = Pv_util.Tab
module Stats = Pv_util.Stats
module Rng = Pv_util.Rng
module Slab = Pv_kernel.Slab
module Physmem = Pv_kernel.Physmem
module Lebench = Pv_workloads.Lebench

let perspective_runs runs =
  List.filter (fun r -> r.Perf.label = "PERSPECTIVE") runs

let hit_rates ~micro ~macro =
  let tab =
    Tab.create ~title:"9.2: View-cache hit rates under PERSPECTIVE"
      ~header:
        [ ("Workloads", Tab.Left); ("ISV cache", Tab.Right); ("DSV cache", Tab.Right) ]
  in
  (* A cache that was never accessed (hit_rate = None) contributes no sample;
     a row with no samples at all renders "n/a", not a fake 0%. *)
  let mean_rate get rs =
    match List.filter_map get rs with
    | [] -> "n/a"
    | rates -> Tab.pct (100.0 *. Stats.mean rates)
  in
  let add name matrix =
    let rs = List.concat_map (fun (_, runs) -> perspective_runs runs) matrix in
    if rs <> [] then
      Tab.row tab
        [
          name;
          mean_rate (fun r -> r.Perf.isv_hit_rate) rs;
          mean_rate (fun r -> r.Perf.dsv_hit_rate) rs;
        ]
  in
  add "LEBench" micro;
  add "datacenter apps" macro;
  Tab.caption tab "Paper: both caches hit close to 99%.";
  Tab.caption tab
    "Scaled-down LEBench iteration counts inflate compulsory misses; the \
     datacenter rows, with more invocations per machine, show the steady state.";
  tab

(* The UNSAFE and PERSPECTIVE runs of [workload] under a study's key
   prefix, read from a sweep's results by key; [None] unless both cells
   succeeded. *)
let pair results ~prefix workload =
  let get v = Option.join (List.assoc_opt (Perf.cell_key ~prefix workload v) results) in
  match (get Schemes.unsafe, get Schemes.perspective) with
  | Some base, Some run -> Some (base, run)
  | _ -> None

let unknown_alloc_prefix block_unknown =
  "unknown-alloc/" ^ if block_unknown then "block" else "allow"

(* Blocking cells come first.  UNSAFE ignores the knob, so its cells share
   their descriptors (and their one simulation) across both modes. *)
let unknown_allocation_cells ?seed ?scale () =
  List.concat_map
    (fun block_unknown ->
      Perf.lebench_cells ?seed ?scale ~block_unknown
        ~prefix:(unknown_alloc_prefix block_unknown)
        ~variants:[ Schemes.unsafe; Schemes.perspective ] ())
    [ true; false ]

let unknown_allocations_table results =
  let mean block_unknown =
    let overheads =
      List.map
        (fun (test : Lebench.test) ->
          Option.map
            (fun (base, run) -> Perf.overhead_pct ~baseline:base run)
            (pair results ~prefix:(unknown_alloc_prefix block_unknown) test.name))
        Lebench.tests
    in
    if List.mem None overheads then None
    else Some (Stats.mean (List.filter_map Fun.id overheads))
  in
  let with_blocking = mean true and without = mean false in
  let attributable =
    match (with_blocking, without) with
    | Some w, Some wo -> Some (w -. wo)
    | _ -> None
  in
  let tab =
    Tab.create ~title:"9.2: Overhead attributable to unknown allocations (LEBench)"
      ~header:[ ("Configuration", Tab.Left); ("Avg overhead", Tab.Right) ]
  in
  let row name v = Tab.row tab [ name; Option.fold ~none:"FAILED" ~some:Tab.pct v ] in
  row "PERSPECTIVE (blocking unknown)" with_blocking;
  row "PERSPECTIVE (unknown allowed)" without;
  row "attributable to unknown allocations" attributable;
  Tab.caption tab "Paper: unknown allocations account for about 1.5% on LEBench.";
  tab

type fragmentation_result = {
  shared_utilization : float;
  secure_utilization : float;
  shared_pages : int;
  secure_pages : int;
  memory_overhead_pct : float;
}

(* Replay one allocation trace against one slab mode: four tenants with
   app-like mixes of resident objects and request churn.  Frees pick random
   live objects (object lifetimes are not stack-like in a kernel), which is
   what creates the partial-page fragmentation the secure allocator pays
   for. *)
let replay_trace ~seed mode =
  let phys = Physmem.create ~frames:16_384 in
  let slab = Slab.create ~mode phys in
  let rng = Rng.create seed in
  let ntenants = 4 in
  (* Per-tenant growable object array with O(1) swap-remove. *)
  let live = Array.init ntenants (fun _ -> ref (Array.make 64 0)) in
  let len = Array.make ntenants 0 in
  let push t va =
    let arr = live.(t) in
    if len.(t) = Array.length !arr then begin
      let bigger = Array.make (2 * Array.length !arr) 0 in
      Array.blit !arr 0 bigger 0 len.(t);
      arr := bigger
    end;
    !arr.(len.(t)) <- va;
    len.(t) <- len.(t) + 1
  in
  let remove_random t =
    if len.(t) > 0 then begin
      let i = Rng.int rng len.(t) in
      let arr = !(live.(t)) in
      let va = arr.(i) in
      arr.(i) <- arr.(len.(t) - 1);
      len.(t) <- len.(t) - 1;
      Slab.kfree slab va
    end
  in
  (* Resident objects. *)
  for t = 0 to ntenants - 1 do
    for _ = 1 to 2_000 do
      let size = Slab.size_classes.(Rng.int rng 6) in
      match Slab.kmalloc slab ~owner:(Physmem.Cgroup (t + 1)) ~size with
      | Some va -> push t va
      | None -> ()
    done
  done;
  (* Request churn. *)
  for _ = 1 to 30_000 do
    let t = Rng.int rng ntenants in
    if Rng.chance rng 0.5 || len.(t) = 0 then begin
      let size = Slab.size_classes.(Rng.int rng (Array.length Slab.size_classes)) in
      match Slab.kmalloc slab ~owner:(Physmem.Cgroup (t + 1)) ~size with
      | Some va -> push t va
      | None -> ()
    end
    else remove_random t
  done;
  (Slab.utilization slab, Slab.peak_pages slab)

(* One cell per slab mode, shared first; both replay the same trace. *)
let fragmentation_cells ?(seed = 42) () =
  List.map
    (fun (name, mode) ->
      Supervise.cell
        ~cache:(Printf.sprintf "sensitivity/fragmentation|slab=%s|seed=%d" name seed)
        ("fragmentation/" ^ name)
        (fun ~fuel:_ -> replay_trace ~seed mode))
    [ ("shared", Slab.Shared); ("secure", Slab.Secure) ]

let fragmentation results =
  match List.map snd results with
  | [ Some (shared_utilization, shared_pages); Some (secure_utilization, secure_pages) ] ->
    Some
      {
        shared_utilization;
        secure_utilization;
        shared_pages;
        secure_pages;
        memory_overhead_pct =
          100.0
          *. (float_of_int secure_pages -. float_of_int shared_pages)
          /. float_of_int (max 1 shared_pages);
      }
  | _ -> None

let fragmentation_table r =
  let tab =
    Tab.create ~title:"9.2: Secure slab allocator memory fragmentation"
      ~header:[ ("Metric", Tab.Left); ("Shared slab", Tab.Right); ("Secure slab", Tab.Right) ]
  in
  (match r with
  | Some r ->
    Tab.row tab
      [
        "utilization (active/total)";
        Tab.pct (100.0 *. r.shared_utilization);
        Tab.pct (100.0 *. r.secure_utilization);
      ];
    Tab.row tab
      [ "peak slab pages"; string_of_int r.shared_pages; string_of_int r.secure_pages ];
    Tab.row tab [ "memory overhead"; ""; Tab.pct r.memory_overhead_pct ]
  | None -> Tab.row tab [ "FAILED"; "-"; "-" ]);
  Tab.caption tab "Paper: the secure slab allocator costs 0.91% extra memory.";
  tab

let domain_reassignment ~macro =
  let tab =
    Tab.create ~title:"9.2: Domain reassignment (slab pages returned to the buddy allocator)"
      ~header:
        [
          ("App", Tab.Left);
          ("Frees", Tab.Right);
          ("Page returns", Tab.Right);
          ("Return ratio", Tab.Right);
          ("Returns/s @2GHz", Tab.Right);
          ("Paper", Tab.Right);
        ]
  in
  let paper = function
    | "httpd" -> "0.01% / 4 per s"
    | "nginx" -> "0.01% / 3 per s"
    | "memcached" -> "0.003% / 2 per s"
    | "redis" -> "0.23% / 96 per s"
    | _ -> "-"
  in
  List.iter
    (fun (name, runs) ->
      match perspective_runs runs with
      | r :: _ ->
        let seconds = float_of_int r.Perf.cycles /. 2.0e9 in
        Tab.row tab
          [
            name;
            string_of_int r.Perf.slab_frees;
            string_of_int r.Perf.slab_page_returns;
            Tab.pct
              (Stats.ratio_pct ~num:r.Perf.slab_page_returns ~den:(max 1 r.Perf.slab_frees));
            Tab.fl ~dec:0 (float_of_int r.Perf.slab_page_returns /. seconds);
            paper name;
          ]
      | [] -> ())
    macro;
  Tab.caption tab
    "Rates are per simulated second; the scaled-down request footprints make \
     absolute rates higher than the paper's wall-clock rates.";
  tab

let cache_size_entries = [ 32; 64; 128; 256; 512 ]

let cache_size_prefix entries = Printf.sprintf "cache-size/%d" entries

(* Per capacity, a baseline/PERSPECTIVE pair on the cache-hostile
   microbenchmark and on redis.  UNSAFE ignores the capacity, so its cells
   share one descriptor (and one simulation) per workload. *)
let cache_size_cells ?seed ?(scale = 0.6) () =
  let variants = [ Schemes.unsafe; Schemes.perspective ] in
  List.concat_map
    (fun entries ->
      let prefix = cache_size_prefix entries in
      Perf.lebench_cells ?seed ~scale ~view_cache_entries:entries ~prefix
        ~tests:[ Lebench.find "select" ] ~variants ()
      @ Perf.apps_cells ?seed ~scale ~view_cache_entries:entries ~prefix
          ~apps:[ Pv_workloads.Apps.redis ] ~variants ())
    cache_size_entries

let cache_size_table results =
  let tab =
    Tab.create ~title:"View-cache capacity sweep under PERSPECTIVE (extension)"
      ~header:
        [
          ("Entries", Tab.Right);
          ("select: ISV/DSV hit", Tab.Right);
          ("select overhead", Tab.Right);
          ("redis: ISV/DSV hit", Tab.Right);
          ("redis tput loss", Tab.Right);
        ]
  in
  List.iter
    (fun entries ->
      let prefix = cache_size_prefix entries in
      match (pair results ~prefix "select", pair results ~prefix "redis") with
      | Some (ub, pb), Some (ua, pa) ->
        (* "n/a": the cache was never accessed, which is not a 0% hit rate *)
        let rate = function
          | Some r -> Printf.sprintf "%.1f%%" (100.0 *. r)
          | None -> "n/a"
        in
        let rates r =
          Printf.sprintf "%s / %s" (rate r.Perf.isv_hit_rate) (rate r.Perf.dsv_hit_rate)
        in
        Tab.row tab
          [
            string_of_int entries;
            rates pb;
            Tab.pct (Perf.overhead_pct ~baseline:ub pb);
            rates pa;
            Tab.pct ((1.0 -. Perf.normalized_throughput ~baseline:ua pa) *. 100.0);
          ]
      | _ ->
        (* keep the row so the sweep's shape survives a failed point *)
        Tab.row tab [ string_of_int entries; "FAILED"; "-"; "FAILED"; "-" ])
    cache_size_entries;
  Tab.caption tab
    "Paper 9.2: 128 entries already reach ~99% hit rates because the kernel \
     working set per context is small; the sweep shows where that breaks down.";
  tab

let isv_metadata ~macro =
  let tab =
    Tab.create ~title:"ISV metadata pages populated on demand (Figure 6.1(a), extension)"
      ~header:
        [
          ("App", Tab.Left);
          ("Shadow pages", Tab.Right);
          ("Metadata bytes", Tab.Right);
        ]
  in
  List.iter
    (fun (name, runs) ->
      match perspective_runs runs with
      | r :: _ ->
        Tab.row tab
          [
            name;
            string_of_int r.Perf.isv_pages_populated;
            string_of_int r.Perf.isv_metadata_bytes;
          ]
      | [] -> ())
    macro;
  Tab.caption tab
    "One 128-byte shadow bitmap per touched kernel code page: the ISV \
     interface costs kilobytes per context, not a kernel's worth of metadata.";
  tab
