(* Tests for the microarchitecture blocks: caches, memory system, TAGE,
   BTB and RAS. *)

module Cache = Pv_uarch.Cache
module Memsys = Pv_uarch.Memsys
module Tage = Pv_uarch.Tage
module Btb = Pv_uarch.Btb
module Ras = Pv_uarch.Ras

let check = Alcotest.check

let small_cache () =
  Cache.create ~name:"t" ~size_bytes:512 ~line_bytes:64 ~ways:2 ~latency:2

let test_cache_miss_then_hit () =
  let c = small_cache () in
  Alcotest.(check bool) "first miss" false (Cache.access c 0);
  Alcotest.(check bool) "then hit" true (Cache.access c 0);
  Alcotest.(check bool) "same line" true (Cache.access c 63);
  Alcotest.(check bool) "next line misses" false (Cache.access c 64)

let test_cache_lru_eviction () =
  let c = small_cache () in
  (* 4 sets x 2 ways; lines 0, 4, 8 map to set 0. *)
  ignore (Cache.access c 0);
  ignore (Cache.access c (4 * 64));
  ignore (Cache.access c 0) (* 0 is now MRU *);
  ignore (Cache.access c (8 * 64)) (* evicts 4*64 *);
  Alcotest.(check bool) "0 survives" true (Cache.probe c 0);
  Alcotest.(check bool) "4*64 evicted" false (Cache.probe c (4 * 64));
  Alcotest.(check bool) "8*64 present" true (Cache.probe c (8 * 64))

let test_cache_probe_no_side_effect () =
  let c = small_cache () in
  Alcotest.(check bool) "probe misses" false (Cache.probe c 0);
  Alcotest.(check bool) "still missing" false (Cache.probe c 0);
  check Alcotest.int "no stats from probe" 0 (Cache.hits c + Cache.misses c)

let test_cache_flush () =
  let c = small_cache () in
  ignore (Cache.access c 0);
  Cache.flush_line c 0;
  Alcotest.(check bool) "flushed" false (Cache.probe c 0);
  ignore (Cache.access c 0);
  Cache.flush_all c;
  Alcotest.(check bool) "flushed all" false (Cache.probe c 0)

let test_cache_stats () =
  let c = small_cache () in
  ignore (Cache.access c 0);
  ignore (Cache.access c 0);
  ignore (Cache.access c 0);
  check Alcotest.int "hits" 2 (Cache.hits c);
  check Alcotest.int "misses" 1 (Cache.misses c);
  Cache.reset c;
  check Alcotest.int "reset" 0 (Cache.hits c + Cache.misses c)

(* The message of the [Invalid_argument] [f] raises, or [None]. *)
let invalid_arg_of f = match f () with _ -> None | exception Invalid_argument msg -> Some msg

(* Lookups split an address by shift and mask, so the line size and the set
   count must also be powers of two: 100-byte lines or 3 sets are refused,
   naming the parameter, while 2 sets of 3 ways build. *)
let test_cache_geometry_validation () =
  Alcotest.(check bool) "bad geometry rejected" true
    (try
       ignore (Cache.create ~name:"x" ~size_bytes:100 ~line_bytes:64 ~ways:3 ~latency:1);
       false
     with Invalid_argument _ -> true);
  List.iter
    (fun (size_bytes, line_bytes, ways, msg) ->
      check Alcotest.(option string) msg (Some msg)
        (invalid_arg_of (fun () ->
             Cache.create ~name:"x" ~size_bytes ~line_bytes ~ways ~latency:1)))
    [
      (1000, 100, 2, "Cache.create: line_bytes 100 is not a power of two");
      (6 * 64, 64, 2, "Cache.create: set count 3 is not a power of two");
    ];
  ignore (Cache.create ~name:"x" ~size_bytes:(6 * 64) ~line_bytes:64 ~ways:3 ~latency:1)

(* A wrong-path load can compute a negative address.  Every line, negative
   or not, must get its own (set, tag) — a fill of one line is visible at
   exactly that line — and no call may raise.  Splitting the set index alone
   correctly would still alias line -1 with line [sets - 1]. *)
let test_cache_negative_lines () =
  let n = 4 (* small_cache: 512 bytes of 64-byte lines, 2 ways *) in
  let lines = List.init (6 * n) (fun i -> i - (3 * n)) in
  List.iter
    (fun a ->
      let c = small_cache () in
      ignore (Cache.access c ((a * 64) + 5));
      List.iter
        (fun b ->
          Alcotest.(check bool)
            (Printf.sprintf "line %d resident after filling line %d" b a)
            (a = b)
            (Cache.probe c (b * 64)))
        lines)
    lines;
  let c = small_cache () in
  List.iter
    (fun addr ->
      Alcotest.(check bool) "cold miss" false (Cache.access_no_lru c addr);
      Cache.touch c addr;
      Alcotest.(check bool) "hit" true (Cache.access c addr);
      Cache.flush_line c addr;
      Alcotest.(check bool) "flushed" false (Cache.probe c addr))
    [ -1; -64; -65; min_int; max_int ]

let cache_lru_prop =
  QCheck.Test.make ~name:"most recently accessed line always survives" ~count:100
    QCheck.(small_list (int_bound 31))
    (fun lines ->
      let c = small_cache () in
      List.iter (fun l -> ignore (Cache.access c (l * 64))) lines;
      match List.rev lines with [] -> true | last :: _ -> Cache.probe c (last * 64))

let test_memsys_latencies () =
  let ms = Memsys.create (Pv_isa.Mem.create ()) in
  let lat1, hit1 = Memsys.data_read ms 0 in
  Alcotest.(check bool) "cold goes to DRAM" true (lat1 > 100 && not hit1);
  let lat2, hit2 = Memsys.data_read ms 0 in
  Alcotest.(check bool) "L1 hit after fill" true (lat2 = 2 && hit2);
  Memsys.flush_line ms 0;
  let lat3, _ = Memsys.data_read ms 0 in
  Alcotest.(check bool) "flush evicts everywhere" true (lat3 > 100)

let test_memsys_l2_path () =
  let ms = Memsys.create (Pv_isa.Mem.create ()) in
  ignore (Memsys.data_read ms 0);
  (* Evict from L1 (32KB, 8-way, 64 sets): 9 lines mapping to set 0. *)
  for i = 1 to 8 do
    ignore (Memsys.data_read ms (i * 64 * 64))
  done;
  let lat, hit = Memsys.data_read ms 0 in
  Alcotest.(check bool) "L2 hit" true ((not hit) && lat = 10)

let test_memsys_would_hit () =
  let ms = Memsys.create (Pv_isa.Mem.create ()) in
  Alcotest.(check bool) "cold" false (Memsys.would_hit_l1d ms 0);
  ignore (Memsys.data_read ms 0);
  Alcotest.(check bool) "warm" true (Memsys.would_hit_l1d ms 0)

let test_tage_learns_loop_branch () =
  let t = Tage.create () in
  let pc = 0x1000 in
  (* Pattern: taken 7x, not-taken 1x, repeating (a loop with 8 trips). *)
  let hist = ref 0 in
  let mispredicts = ref 0 in
  for i = 0 to 799 do
    let actual = i mod 8 <> 7 in
    let meta = Tage.predict t ~pc ~hist:!hist in
    let pred = Tage.predicted meta in
    if pred <> actual then incr mispredicts;
    Tage.update t ~pc ~hist:!hist meta ~taken:actual;
    hist := (!hist lsl 1) lor (if actual then 1 else 0)
  done;
  (* After warmup the pattern is history-predictable. *)
  Alcotest.(check bool)
    (Printf.sprintf "few mispredicts (%d)" !mispredicts)
    true (!mispredicts < 120)

let test_tage_biased_branch () =
  let t = Tage.create () in
  let mis = ref 0 in
  for _ = 1 to 200 do
    let meta = Tage.predict t ~pc:0x2000 ~hist:0 in
    let pred = Tage.predicted meta in
    if not pred then incr mis;
    Tage.update t ~pc:0x2000 ~hist:0 meta ~taken:true
  done;
  Alcotest.(check bool) "always-taken learned" true (!mis < 10)

let test_tage_mistraining () =
  (* The Spectre-v1 primitive: train not-taken, then the predictor keeps
     predicting not-taken on the out-of-bounds call. *)
  let t = Tage.create () in
  let hist = 0 in
  for _ = 1 to 64 do
    let meta = Tage.predict t ~pc:0x3000 ~hist in
    Tage.update t ~pc:0x3000 ~hist meta ~taken:false
  done;
  let pred = Tage.predicted (Tage.predict t ~pc:0x3000 ~hist) in
  Alcotest.(check bool) "predicts the trained direction" false pred

let test_btb_update_lookup () =
  let b = Btb.create () in
  Alcotest.(check bool) "cold" true (Btb.lookup b 0x4000 = None);
  Btb.update b 0x4000 0xBEEF0;
  check Alcotest.(option int) "trained" (Some 0xBEEF0) (Btb.lookup b 0x4000);
  Btb.update b 0x4000 0xCAFE0;
  check Alcotest.(option int) "retrained" (Some 0xCAFE0) (Btb.lookup b 0x4000)

let test_btb_aliasing () =
  let b = Btb.create () in
  (* Two PCs whose index and partial tag match alias to one entry — the
     cross-context injection vector. *)
  let pc1 = 0x4000 in
  let pc2 = pc1 + (1 lsl 40) (* beyond the 12-bit tag *) in
  Btb.update b pc1 (0x1234 * 4);
  Alcotest.(check bool) "poisoned entry shared" true (Btb.lookup b pc2 <> None)

(* A BTB or RAS of zero entries would raise Division_by_zero at its first
   lookup or push, and a BTB's set count must be a power of two for its
   mask and shift: [create] refuses both, naming the parameter. *)
let test_btb_ras_geometry () =
  List.iter
    (fun (msg, f) -> check Alcotest.(option string) msg (Some msg) (invalid_arg_of f))
    [
      ("Btb.create: entries must be positive", fun () -> ignore (Btb.create ~entries:0 ()));
      ( "Btb.create: set count 3 is not a power of two",
        fun () -> ignore (Btb.create ~entries:12 ()) );
      ("Ras.create: entries must be positive", fun () -> ignore (Ras.create ~entries:0 ()));
    ];
  ignore (Btb.lookup (Btb.create ~entries:4 ()) 0x4000);
  Ras.push (Ras.create ~entries:1 ()) 0x4000

let test_btb_flush () =
  let b = Btb.create () in
  Btb.update b 0x4000 1;
  Btb.reset b;
  Alcotest.(check bool) "flushed" true (Btb.lookup b 0x4000 = None)

(* --- known answers ---

   MD5 digests recorded on the one-record-per-way representation of
   [Cache], [Tage] and [Btb].  Each stream is seeded and long enough to hit
   every replacement rule: hot sets see more tags than ways (LRU victims),
   single-line flushes leave holes that later fills must pick (the
   highest-index invalid way), and the TAGE stream reaches both the
   allocation and the useful-bit decay paths.  A layout change that moves
   one fill to another way, or one counter by one step, fails here. *)

let kat_digest b = Digest.to_hex (Digest.string (Buffer.contents b))

let signature c = Pv_util.Checksum.render Cache.write_signature c

(* Ops on a few hot sets (plus stray ones) of a cache of [nsets] sets of
   [ways] ways, tags from -3 up to [ways + 2] so lines go negative and sets
   overflow; the signature is sampled every 1000 ops and at the end. *)
let cache_stream c ~nsets ~ways ~seed ~ops =
  let rng = Pv_util.Rng.create seed in
  let rnd n = Pv_util.Rng.int rng n in
  let b = Buffer.create (4 * ops) in
  for i = 1 to ops do
    let set = if rnd 4 = 0 then rnd nsets else rnd 3 in
    let tag = rnd (ways + 6) - 3 in
    let addr = (((tag * nsets) + set) * 64) + rnd 64 in
    (match rnd 20 with
    | 0 | 1 | 2 | 3 | 4 | 5 | 6 | 7 ->
      Buffer.add_char b (if Cache.access c addr then 'H' else 'M')
    | 8 | 9 | 10 -> Buffer.add_char b (if Cache.access_no_lru c addr then 'h' else 'm')
    | 11 | 12 | 13 ->
      Cache.touch c addr;
      Buffer.add_char b 't'
    | 14 | 15 | 16 -> Buffer.add_char b (if Cache.probe c addr then 'P' else 'p')
    | 17 | 18 ->
      Cache.flush_line c addr;
      Buffer.add_char b 'f'
    | _ ->
      if rnd 40 = 0 then begin
        Cache.flush_all c;
        Buffer.add_char b 'F'
      end);
    if i mod 1000 = 0 then Buffer.add_string b (signature c)
  done;
  Printf.bprintf b "|%d/%d|%s" (Cache.hits c) (Cache.misses c) (signature c);
  kat_digest b

(* Forty-eight branches of four kinds (biased, loop, history-correlated,
   random) under one global history, as the pipeline keeps it. *)
let tage_stream ~seed ~branches =
  let rng = Pv_util.Rng.create seed in
  let rnd n = Pv_util.Rng.int rng n in
  let t = Tage.create () in
  let npcs = 48 in
  let pcs = Array.init npcs (fun i -> 0x40_0000 + (i * 0x4c4)) in
  let trips = Array.make npcs 0 in
  let b = Buffer.create branches in
  let hist = ref 0 in
  for _ = 1 to branches do
    let k = rnd npcs in
    let taken =
      match k mod 4 with
      | 0 -> rnd 10 <> 0
      | 1 ->
        trips.(k) <- (trips.(k) + 1) mod (3 + (k mod 7));
        trips.(k) <> 0
      | 2 -> (!hist lsr (1 + (k mod 5))) land 1 = 1
      | _ -> rnd 2 = 0
    in
    let meta = Tage.predict t ~pc:pcs.(k) ~hist:!hist in
    let pred = Tage.predicted meta in
    Buffer.add_char b (if pred then '1' else '0');
    Tage.update t ~pc:pcs.(k) ~hist:!hist meta ~taken;
    hist := ((!hist lsl 1) lor if taken then 1 else 0) land max_int
  done;
  (* The number of predictions: the digest was recorded with the
     predictor's lookup count. *)
  Printf.bprintf b "|%d" branches;
  kat_digest b

(* Updates and lookups on a few hot sets with eight tags each (twice the
   ways) and three aliases per tag (PCs equal in index and partial tag). *)
let btb_stream ~seed ~ops =
  let rng = Pv_util.Rng.create seed in
  let rnd n = Pv_util.Rng.int rng n in
  let t = Btb.create () in
  let b = Buffer.create (8 * ops) in
  for _ = 1 to ops do
    let set = if rnd 4 = 0 then rnd 1024 else rnd 3 in
    let tag = rnd 8 and alias = rnd 3 in
    let pc = ((((alias lsl 12) + tag) * 1024) + set) lsl 2 in
    match rnd 20 with
    | 0 ->
      Btb.reset t;
      Buffer.add_char b 'F'
    | 1 | 2 | 3 | 4 | 5 | 6 | 7 | 8 | 9 -> Btb.update t pc (rnd 100_000 * 4)
    | _ -> (
      match Btb.lookup t pc with
      | Some target -> Printf.bprintf b "%d;" target
      | None -> Buffer.add_char b '-')
  done;
  kat_digest b

(* (make, sets, ways) *)
let l1d_geometry =
  ( (fun () -> Cache.create ~name:"L1D" ~size_bytes:(32 * 1024) ~line_bytes:64 ~ways:8 ~latency:2),
    64,
    8 )

let l2_geometry =
  ( (fun () ->
      Cache.create ~name:"L2" ~size_bytes:(2 * 1024 * 1024) ~line_bytes:64 ~ways:16 ~latency:8),
    2048,
    16 )

let test_cache_kat () =
  List.iter
    (fun (label, (make, nsets, ways), seed, digest) ->
      check Alcotest.string label digest (cache_stream (make ()) ~nsets ~ways ~seed ~ops:20_000))
    [
      ("L1D seed 1", l1d_geometry, 1, "cc4debe53402ad5c49b0cb6d2dd09e81");
      ("L1D seed 2", l1d_geometry, 2, "e331380df3c8d1c4107196f08eb7c33f");
      ("L2 seed 3", l2_geometry, 3, "afb56bec49ae631190cc671cc607e60f");
    ]

let test_tage_kat () =
  check Alcotest.string "seed 4" "9a0bf3d2fcde5e7aebd82e9f0a298ada"
    (tage_stream ~seed:4 ~branches:200_000)

let test_btb_kat () =
  check Alcotest.string "seed 5" "617fbb7bcaf1e6105d9785de85a317a6" (btb_stream ~seed:5 ~ops:20_000)

let test_ras_lifo () =
  let r = Ras.create ~entries:4 () in
  Alcotest.(check bool) "empty" true (Ras.pop r = None);
  Ras.push r 10;
  Ras.push r 20;
  check Alcotest.(option int) "pop 20" (Some 20) (Ras.pop r);
  check Alcotest.(option int) "pop 10" (Some 10) (Ras.pop r)

let test_ras_overflow_wraps () =
  let r = Ras.create ~entries:2 () in
  Ras.push r 1;
  Ras.push r 2;
  Ras.push r 3 (* overwrites 1 *);
  check Alcotest.(option int) "top" (Some 3) (Ras.pop r);
  check Alcotest.(option int) "second" (Some 2) (Ras.pop r)

let test_ras_stale_on_underflow () =
  (* The ret2spec lever: after push/pop, the vacated slot is served again. *)
  let r = Ras.create ~entries:4 () in
  Ras.push r 42;
  check Alcotest.(option int) "pop" (Some 42) (Ras.pop r);
  check Alcotest.(option int) "stale value served" (Some 42) (Ras.pop r);
  Ras.clear r;
  Alcotest.(check bool) "cleared forgets" true (Ras.pop r = None)

let suite =
  [
    ( "uarch.cache",
      [
        Alcotest.test_case "miss then hit" `Quick test_cache_miss_then_hit;
        Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
        Alcotest.test_case "probe side-effect free" `Quick test_cache_probe_no_side_effect;
        Alcotest.test_case "flush" `Quick test_cache_flush;
        Alcotest.test_case "stats" `Quick test_cache_stats;
        Alcotest.test_case "geometry validation" `Quick test_cache_geometry_validation;
        Alcotest.test_case "negative lines map to distinct slots" `Quick
          test_cache_negative_lines;
        QCheck_alcotest.to_alcotest cache_lru_prop;
      ] );
    ( "uarch.memsys",
      [
        Alcotest.test_case "latency ladder" `Quick test_memsys_latencies;
        Alcotest.test_case "L2 hit path" `Quick test_memsys_l2_path;
        Alcotest.test_case "would_hit probe" `Quick test_memsys_would_hit;
      ] );
    ( "uarch.tage",
      [
        Alcotest.test_case "learns loop pattern" `Quick test_tage_learns_loop_branch;
        Alcotest.test_case "biased branch" `Quick test_tage_biased_branch;
        Alcotest.test_case "mistraining sticks" `Quick test_tage_mistraining;
      ] );
    ( "uarch.btb",
      [
        Alcotest.test_case "update/lookup" `Quick test_btb_update_lookup;
        Alcotest.test_case "partial-tag aliasing" `Quick test_btb_aliasing;
        Alcotest.test_case "flush" `Quick test_btb_flush;
        Alcotest.test_case "BTB and RAS geometry" `Quick test_btb_ras_geometry;
      ] );
    ( "uarch.kat",
      [
        Alcotest.test_case "cache streams" `Quick test_cache_kat;
        Alcotest.test_case "TAGE stream" `Quick test_tage_kat;
        Alcotest.test_case "BTB stream" `Quick test_btb_kat;
      ] );
    ( "uarch.ras",
      [
        Alcotest.test_case "LIFO" `Quick test_ras_lifo;
        Alcotest.test_case "overflow wraps" `Quick test_ras_overflow_wraps;
        Alcotest.test_case "stale underflow serves gadget" `Quick test_ras_stale_on_underflow;
      ] );
  ]
