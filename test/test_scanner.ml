(* Tests for the Kasper-substitute: gadget corpus and fuzzing-campaign
   model. *)

module Callgraph = Pv_kernel.Callgraph
module Gadgets = Pv_scanner.Gadgets
module Campaign = Pv_scanner.Campaign
module Bitset = Pv_util.Bitset

let check = Alcotest.check

let graph = Callgraph.synthesize 42

let corpus = Gadgets.plant graph ~seed:42

let test_corpus_counts () =
  check Alcotest.int "total" 1533 (Gadgets.total corpus);
  check Alcotest.int "mds" 805 (Gadgets.count corpus Gadgets.Mds);
  check Alcotest.int "port" 509 (Gadgets.count corpus Gadgets.Port);
  check Alcotest.int "cache" 219 (Gadgets.count corpus Gadgets.CacheChannel)

let test_corpus_determinism () =
  let c2 = Gadgets.plant graph ~seed:42 in
  check Alcotest.(list int) "same nodes" (List.sort compare (Gadgets.nodes corpus))
    (List.sort compare (Gadgets.nodes c2))

(* Known answers recorded on the linear-scan sampler: an MD5 of every
   planted gadget's kind and node, in plant order.  A sampler change that
   moves a single node fails here. *)
let corpus_digest corpus =
  let b = Buffer.create 16384 in
  List.iter
    (fun (g : Gadgets.gadget) ->
      Buffer.add_string b (Printf.sprintf "%s:%d;" (Gadgets.kind_name g.kind) g.node))
    (Gadgets.gadgets corpus);
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_corpus_kat () =
  check Alcotest.string "seed 42" "401dc5cce233e7aa09fbb0599854341b" (corpus_digest corpus);
  check Alcotest.string "seed 7" "f1c29a3fb88ce98b0f9bd5cd85bbe187"
    (corpus_digest (Gadgets.plant (Callgraph.synthesize 7) ~seed:7))

let test_corpus_distinct_per_kind () =
  List.iter
    (fun kind ->
      let nodes = Gadgets.nodes_of_kind corpus kind in
      check Alcotest.int "no duplicate nodes within kind"
        (List.length nodes)
        (List.length (List.sort_uniq compare nodes)))
    [ Gadgets.Mds; Gadgets.Port; Gadgets.CacheChannel ]

let test_corpus_scoping () =
  let n = Callgraph.nnodes graph in
  let empty = Bitset.create n in
  let full = Bitset.of_list n (List.init n (fun i -> i)) in
  check Alcotest.int "empty scope: nothing in scope" 0
    (List.length (Gadgets.in_scope corpus empty));
  check Alcotest.int "full scope: everything" (Gadgets.total corpus)
    (List.length (Gadgets.in_scope corpus full));
  check (Alcotest.float 1e-9) "all excluded by empty view" 100.0
    (Gadgets.excluded_pct corpus Gadgets.Mds empty);
  check (Alcotest.float 1e-9) "none excluded by full view" 0.0
    (Gadgets.excluded_pct corpus Gadgets.Mds full)

let test_campaign_full_kernel () =
  let r = Campaign.run graph corpus ~seed:1 () in
  check Alcotest.int "covers the kernel" (Callgraph.nnodes graph) r.Campaign.examined;
  check Alcotest.int "finds every gadget" (Gadgets.total corpus) r.Campaign.found;
  Alcotest.(check bool) "positive rate" true (r.Campaign.rate > 0.0);
  Alcotest.(check bool) "timeline monotone" true
    (let rec mono = function
       | (h1, c1) :: ((h2, c2) :: _ as rest) -> h1 <= h2 && c1 <= c2 && mono rest
       | _ -> true
     in
     mono r.Campaign.timeline)

let test_campaign_bounded () =
  let entries = List.init 30 (fun nr -> Callgraph.entry_of_syscall graph nr) in
  let scope = Callgraph.static_reachable graph entries in
  let bounded = Campaign.run graph corpus ~scope ~seed:1 () in
  check Alcotest.int "space = scope size" (Bitset.count scope) bounded.Campaign.space;
  Alcotest.(check bool) "fewer gadgets discoverable" true
    (bounded.Campaign.found < Gadgets.total corpus);
  check Alcotest.int "exactly the in-scope gadgets"
    (List.length (Gadgets.in_scope corpus scope))
    bounded.Campaign.found;
  Alcotest.(check bool) "finishes sooner" true
    (bounded.Campaign.hours < (Campaign.run graph corpus ~seed:1 ()).Campaign.hours)

let test_campaign_speedup_definition () =
  let full = Campaign.run graph corpus ~seed:1 () in
  check (Alcotest.float 1e-9) "self speedup is 1" 1.0 (Campaign.speedup ~bounded:full ~full)

let test_campaign_throughput_scaling () =
  let slow = Campaign.run graph corpus ~funcs_per_hour:300 ~seed:1 () in
  let fast = Campaign.run graph corpus ~funcs_per_hour:600 ~seed:1 () in
  Alcotest.(check bool) "double throughput, double rate" true
    (abs_float ((fast.Campaign.rate /. slow.Campaign.rate) -. 2.0) < 0.01)

let suite =
  [
    ( "scanner.gadgets",
      [
        Alcotest.test_case "Kasper population" `Quick test_corpus_counts;
        Alcotest.test_case "determinism" `Quick test_corpus_determinism;
        Alcotest.test_case "corpus KAT seeds 42 and 7" `Quick test_corpus_kat;
        Alcotest.test_case "distinct nodes" `Quick test_corpus_distinct_per_kind;
        Alcotest.test_case "scoping" `Quick test_corpus_scoping;
      ] );
    ( "scanner.campaign",
      [
        Alcotest.test_case "full kernel" `Quick test_campaign_full_kernel;
        Alcotest.test_case "bounded scan" `Quick test_campaign_bounded;
        Alcotest.test_case "speedup identity" `Quick test_campaign_speedup_definition;
        Alcotest.test_case "throughput scaling" `Quick test_campaign_throughput_scaling;
      ] );
  ]
