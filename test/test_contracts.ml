(* The contract-checker subsystem and the SafeSpec/SpecBox shadow schemes.

   Three layers of evidence:
   1. Shadow-structure invariants (QCheck): speculative fills never touch the
      real cache hierarchy, a squash leaves the architectural cache state
      byte-identical to pre-speculation, and the shadow guards never block an
      access (speculative or not) — their whole point is isolation without
      stalls.
   2. Opt-vs-ref agreement: random programs under SAFESPEC and SPECBOX guards
      behave identically (architecture AND timing) in the fast [Pipeline] and
      the frozen seed [Pipeline_ref], and architecturally identically to an
      unguarded run.
   3. The checker itself: expected verdicts on known cells, determinism of
      the rendered matrix across jobs and across a cold/warm cache, and
      kill+resume convergence. *)

module C = Pv_contracts.Contracts
module Defense = Perspective.Defense
module Shadow = Perspective.Shadow
module Guard = Pv_uarch.Guard
module Pipeline = Pv_uarch.Pipeline
module Memsys = Pv_uarch.Memsys
module Cache = Pv_uarch.Cache
module Mem = Pv_isa.Mem
module Layout = Pv_isa.Layout
module Supervise = Pv_experiments.Supervise
module Schemes = Pv_experiments.Schemes
module Tab = Pv_util.Tab
module Fault = Pv_util.Fault
module Rng = Pv_util.Rng
module Checksum = Pv_util.Checksum

let check = Alcotest.check

(* The same guard Defense.build wires up, but built directly so each test
   pipeline gets its own shadow over its own memory system. *)
let shadow_guard mode ms =
  let sh = Shadow.create ~mode ms in
  let g =
    {
      Guard.name = (match mode with Shadow.Shared -> "safespec" | Shadow.Labeled -> "specbox");
      check = (fun _ -> Guard.Allow);
      notify_vp =
        Some
          (fun ~insn_va:_ ~addr ~asid ~kernel_mode:_ ->
            Shadow.promote sh ~key:(Layout.phys_key ~asid addr) ~asid);
      spec_read = Some (fun ~key ~asid -> Shadow.spec_read sh ~key ~asid);
      notify_squash = Some (fun ~asid -> Shadow.squash sh ~asid);
      shadow_btb = true;
    }
  in
  (sh, g)

(* --- shadow-structure invariants (QCheck) ------------------------------ *)

let arb_accesses =
  (* (line, asid) speculative accesses; small ranges force label collisions
     and shadow hits. *)
  QCheck.make
    QCheck.Gen.(
      list_size (int_range 1 64)
        (pair (int_range 0 255) (int_range 1 4)))

let signature c = Checksum.render Cache.write_signature c

let cache_state ms =
  String.concat "|"
    [
      signature (Memsys.l1d ms);
      signature (Memsys.l2 ms);
      signature (Memsys.l1i ms);
    ]

let squash_restores_prop mode =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "%s: spec fills + full squash leave cache state untouched"
         (match mode with Shadow.Shared -> "safespec" | Shadow.Labeled -> "specbox"))
    ~count:100 arb_accesses
    (fun accesses ->
      let ms = Memsys.create (Mem.create ()) in
      (* a little architectural state first, so the signature is non-trivial *)
      for i = 0 to 7 do
        ignore (Memsys.data_read ms (Layout.phys_key ~asid:1 (Layout.user_data_base + (64 * i))))
      done;
      let before = cache_state ms in
      let sh = Shadow.create ~mode ms in
      List.iter
        (fun (line, asid) ->
          ignore
            (Shadow.spec_read sh
               ~key:(Layout.phys_key ~asid (Layout.user_data_base + (Layout.line_bytes * line)))
               ~asid))
        accesses;
      let untouched_during = cache_state ms = before in
      List.iter (fun asid -> Shadow.squash sh ~asid) [ 1; 2; 3; 4 ];
      untouched_during && cache_state ms = before && Shadow.size sh = 0)

let never_blocks_prop =
  let arb_query =
    QCheck.make
      QCheck.Gen.(
        let* insn_va = int_range 0 100_000 in
        let* fid = int_range 0 64 in
        let* addr = int_range 0 1_000_000 in
        let* asid = int_range 1 8 in
        let* kernel_mode = bool in
        let* speculative = bool in
        let* l1_hit = bool in
        let* tainted = bool in
        return
          { Guard.insn_va; fid; addr; asid; kernel_mode; speculative; l1_hit; tainted })
  in
  QCheck.Test.make ~name:"shadow guards never block any access" ~count:200 arb_query
    (fun q ->
      List.for_all
        (fun mode ->
          let ms = Memsys.create (Mem.create ()) in
          let _, g = shadow_guard mode ms in
          g.Guard.check q = Guard.Allow)
        [ Shadow.Shared; Shadow.Labeled ])

let test_labeled_isolation () =
  (* SpecBox: a squash by one ASID must not discard another ASID's shadow
     entries; SafeSpec's shared shadow flushes everything. *)
  let key asid = Layout.phys_key ~asid Layout.user_data_base in
  let ms = Memsys.create (Mem.create ()) in
  let sh = Shadow.create ~mode:Shadow.Labeled ms in
  ignore (Shadow.spec_read sh ~key:(key 1) ~asid:1);
  ignore (Shadow.spec_read sh ~key:(key 2) ~asid:2);
  Shadow.squash sh ~asid:1;
  check Alcotest.int "labeled squash keeps the other domain" 1 (Shadow.size sh);
  let ms = Memsys.create (Mem.create ()) in
  let sh = Shadow.create ~mode:Shadow.Shared ms in
  ignore (Shadow.spec_read sh ~key:(key 1) ~asid:1);
  ignore (Shadow.spec_read sh ~key:(key 2) ~asid:2);
  Shadow.squash sh ~asid:1;
  check Alcotest.int "shared squash flushes everything" 0 (Shadow.size sh)

(* --- opt vs ref agreement under the shadow guards ---------------------- *)

(* A run's architectural result, timing, final L1D/L2 state and, under a
   shadow guard, the shadow's size and fill/discard/promotion counts. *)
type shadow_run = {
  regs : int array;
  stream : (int * int) list;
  cycles : int;
  committed : int;
  caches : string list;
  shadow : int list;
}

let observed ms sh ~regs ~stream ~cycles ~committed =
  {
    regs;
    stream = List.rev stream;
    cycles;
    committed;
    caches = [ signature (Memsys.l1d ms); signature (Memsys.l2 ms) ];
    shadow =
      (match sh with
      | Some (s, _) -> [ Shadow.size s; Shadow.fills s; Shadow.discards s; Shadow.promotions s ]
      | None -> []);
  }

let run_opt ?guard prog =
  let ms = Memsys.create (Mem.create ()) in
  let sh = Option.map (fun mode -> shadow_guard mode ms) guard in
  let pipe = Pipeline.create ms prog in
  Option.iter (fun (_, g) -> Pipeline.set_guard pipe g) sh;
  let stream = ref [] in
  let on_commit fid idx _ = stream := (fid, idx) :: !stream in
  let r =
    Pipeline.run ~hooks:{
      Pipeline.on_syscall = (fun _ -> Pv_isa.Iss.Skip);
      on_sysret = (fun _ -> Pv_isa.Iss.Skip);
      on_commit = Some on_commit;
    } pipe
      ~asid:1 ~start:0
  in
  observed ms sh ~regs:r.Pipeline.regs ~stream:!stream ~cycles:r.Pipeline.cycles
    ~committed:r.Pipeline.committed

let run_ref ?guard prog =
  let ms = Memsys.create (Mem.create ()) in
  let sh = Option.map (fun mode -> shadow_guard mode ms) guard in
  let pipe = Pipeline_ref.create ms prog in
  Option.iter (fun (_, g) -> Pipeline_ref.set_guard pipe g) sh;
  let stream = ref [] in
  let on_commit fid idx _ = stream := (fid, idx) :: !stream in
  let r =
    Pipeline_ref.run
      ~hooks:{ Pipeline_ref.null_hooks with Pipeline_ref.on_commit = Some on_commit }
      pipe ~asid:1 ~start:0
  in
  observed ms sh ~regs:r.Pipeline_ref.regs ~stream:!stream ~cycles:r.Pipeline_ref.cycles
    ~committed:r.Pipeline_ref.committed

let assert_shadow_agrees ~name prog =
  let base = run_opt prog in
  List.iter
    (fun mode ->
      let o = run_opt ~guard:mode prog in
      let r = run_ref ~guard:mode prog in
      let label fmt = Printf.sprintf ("%s: " ^^ fmt) name in
      check Alcotest.(array int) (label "shadow regs = unguarded regs") base.regs o.regs;
      check
        Alcotest.(list (pair int int))
        (label "shadow commit stream = unguarded") base.stream o.stream;
      check Alcotest.(array int) (label "opt regs = ref regs") r.regs o.regs;
      check Alcotest.(list (pair int int)) (label "opt commit stream = ref") r.stream o.stream;
      check Alcotest.int (label "opt cycles = ref cycles") r.cycles o.cycles;
      check Alcotest.int (label "opt committed = ref committed") r.committed o.committed;
      check Alcotest.(list string) (label "opt L1D/L2 state = ref") r.caches o.caches;
      check
        Alcotest.(list int)
        (label "opt shadow size/fills/discards/promotions = ref")
        r.shadow o.shadow)
    [ Shadow.Shared; Shadow.Labeled ]

(* Both program generators, as in the equivalence suite. *)
let generators =
  [ ("", Test_oracle.gen_program); ("wide ", Test_oracle.gen_program_wide) ]

let test_shadow_opt_matches_ref () =
  List.iter
    (fun (kind, gen) ->
      for seed = 1 to 25 do
        let rng = Rng.create (0x5AFE + seed) in
        assert_shadow_agrees ~name:(Printf.sprintf "%sseed %d" kind seed) (gen rng)
      done)
    generators

(* QCheck-driven seeds on top of the fixed sweep (CI runs it at 25 times
   its count). *)
let shadow_program_prop =
  QCheck.Test.make ~name:"random program: shadow opt = ref" ~count:10
    QCheck.(int_bound 0xFFFF)
    (fun seed ->
      List.iter
        (fun (kind, gen) ->
          let rng = Rng.create (0x5AFE_000 + seed) in
          assert_shadow_agrees ~name:(Printf.sprintf "qcheck %sseed %d" kind seed) (gen rng))
        generators;
      true)

(* --- checker verdicts --------------------------------------------------- *)

(* One matrix cell, run as the sweep runs it. *)
let run_cell ~attack ~scheme =
  match C.cells ~attacks:[ attack ] ~schemes:[ scheme ] () with
  | [ cell ] -> cell.Supervise.run ~fuel:None
  | _ -> Alcotest.fail "one cell expected"

let test_known_verdicts () =
  let r = run_cell ~attack:"v1-index" ~scheme:"UNSAFE" in
  check Alcotest.string "UNSAFE leaks v1" "CT-SPEC" (C.verdict_name r.C.verdict);
  Alcotest.(check bool) "diff names the cache channel" true
    (List.mem "caches" r.C.diffs);
  let r = run_cell ~attack:"v1-index" ~scheme:"FENCE" in
  check Alcotest.string "FENCE is ARCH-SEQ" "ARCH-SEQ" (C.verdict_name r.C.verdict);
  check Alcotest.int "FENCE ran no speculative loads" 0 r.C.obs_lo.C.spec_loads;
  List.iter
    (fun scheme ->
      List.iter
        (fun attack ->
          let r = run_cell ~attack ~scheme in
          Alcotest.(check bool)
            (Printf.sprintf "%s does not leak under %s" scheme attack)
            false (r.C.verdict = C.Ct_spec);
          Alcotest.(check bool)
            (Printf.sprintf "%s speculated under %s" scheme attack)
            true
            (r.C.obs_lo.C.spec_loads > 0))
        C.attack_names)
    [ "SAFESPEC"; "SPECBOX" ]

(* Every cell's verdict, diffs and both observations, against the bytes
   recorded in contracts.golden (beside the binary under [dune runtest], in
   test/ under [dune exec]). *)
let obs_fields (o : C.obs) =
  Printf.sprintf "%s,%s,%s,%s,%d,%d,%d" o.C.commit_digest o.C.event_digest o.C.cache_digest
    (match o.C.leaked with Some b -> string_of_int b | None -> "-")
    o.C.hot_slots o.C.spec_loads o.C.fences

let golden_line (r : C.result) =
  Printf.sprintf "contract %s/%s|verdict=%s|diffs=%s|lo=%s|hi=%s" r.C.attack r.C.scheme
    (C.verdict_name r.C.verdict) (String.concat "," r.C.diffs) (obs_fields r.C.obs_lo)
    (obs_fields r.C.obs_hi)

let test_golden_digests () =
  let path =
    if Sys.file_exists "contracts.golden" then "contracts.golden" else "test/contracts.golden"
  in
  let want =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  let got =
    List.concat_map
      (fun attack ->
        List.map (fun scheme -> golden_line (run_cell ~attack ~scheme)) C.scheme_labels)
      C.attack_names
  in
  check Alcotest.int "one golden line per cell" (List.length want) (List.length got);
  List.iter2 (fun w g -> check Alcotest.string (List.hd (String.split_on_char '|' w)) w g) want got

let test_unknown_labels () =
  let invalid f = try ignore (f ()); None with Invalid_argument m -> Some m in
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    n = 0 || go 0
  in
  (match invalid (fun () -> C.cells ~attacks:[ "v9" ] ()) with
  | Some m ->
    Alcotest.(check bool) "bad attack named" true (contains ~sub:"v9" m);
    Alcotest.(check bool) "valid attacks listed" true (contains ~sub:"v1-index" m)
  | None -> Alcotest.fail "unknown attack accepted");
  (match invalid (fun () -> C.cells ~schemes:[ "SPECTREGUARD" ] ()) with
  | Some m ->
    Alcotest.(check bool) "bad scheme named" true (contains ~sub:"SPECTREGUARD" m);
    Alcotest.(check bool) "valid schemes listed" true (contains ~sub:"SAFESPEC" m)
  | None -> Alcotest.fail "unknown scheme accepted");
  match invalid (fun () -> Schemes.find "NOPE") with
  | Some m ->
    Alcotest.(check bool) "Schemes.find names the label" true (contains ~sub:"NOPE" m);
    Alcotest.(check bool) "Schemes.find lists valid labels" true (contains ~sub:"DOM" m)
  | None -> Alcotest.fail "Schemes.find accepted an unknown label"

(* --- matrix determinism ------------------------------------------------- *)

let sub_attacks = [ "v1-index"; "v2" ]

let sub_schemes = [ "UNSAFE"; "FENCE"; "SAFESPEC" ]

let sub_cells () = C.cells ~attacks:sub_attacks ~schemes:sub_schemes ()

let render sweep =
  Tab.to_string
    (C.matrix_table ~attacks:sub_attacks ~schemes:sub_schemes sweep.Supervise.results)

let with_temp_dir f =
  let dir = Filename.temp_file "pv_contracts" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      let rec rm p =
        if Sys.is_directory p then begin
          Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
          Sys.rmdir p
        end
        else Sys.remove p
      in
      rm dir)
    (fun () -> f dir)

let test_matrix_deterministic () =
  with_temp_dir (fun dir ->
      let cache = Pv_util.Rescache.open_dir dir in
      let cold =
        Supervise.run ~config:{ Supervise.default with jobs = 1; cache = Some cache } (sub_cells ())
      in
      check Alcotest.int "cold run executed every cell" 6 cold.Supervise.executed;
      let warm =
        Supervise.run ~config:{ Supervise.default with jobs = 4; cache = Some cache } (sub_cells ())
      in
      check Alcotest.int "warm run served everything from cache" 6 warm.Supervise.cached;
      check Alcotest.int "warm run executed nothing" 0 warm.Supervise.executed;
      check Alcotest.string "cold -j1 and warm -j4 matrices byte-identical"
        (render cold) (render warm))

let test_fault_then_resume_converges () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "checkpoint" in
      let fault =
        Result.get_ok (Fault.parse "crash@2")
      in
      let faulted =
        Supervise.run
          ~config:{ Supervise.default with jobs = 2; fault; checkpoint = Some path }
          (sub_cells ())
      in
      check Alcotest.int "one cell failed" 1 (Supervise.failed faulted);
      let resumed =
        Supervise.run
          ~config:{ Supervise.default with checkpoint = Some path; resume = true }
          (sub_cells ())
      in
      check Alcotest.int "only the failed cell re-ran" 1 resumed.Supervise.executed;
      let clean = Supervise.run (sub_cells ()) in
      check Alcotest.string "resumed matrix bytes = uninterrupted serial run"
        (render clean) (render resumed))

let suite =
  [
    ( "contracts.shadow",
      [
        QCheck_alcotest.to_alcotest (squash_restores_prop Shadow.Shared);
        QCheck_alcotest.to_alcotest (squash_restores_prop Shadow.Labeled);
        QCheck_alcotest.to_alcotest never_blocks_prop;
        Alcotest.test_case "labeled vs shared squash isolation" `Quick test_labeled_isolation;
        Alcotest.test_case "random programs: shadow opt = ref = unguarded arch" `Slow
          test_shadow_opt_matches_ref;
        QCheck_alcotest.to_alcotest shadow_program_prop;
      ] );
    ( "contracts.checker",
      [
        Alcotest.test_case "known verdicts" `Slow test_known_verdicts;
        Alcotest.test_case "50-cell digests vs contracts.golden" `Slow test_golden_digests;
        Alcotest.test_case "unknown labels are friendly errors" `Quick test_unknown_labels;
        Alcotest.test_case "cold -j1 = warm -j4 matrix bytes" `Slow test_matrix_deterministic;
        Alcotest.test_case "kill, checkpoint, resume, converge" `Slow
          test_fault_then_resume_converges;
      ] );
  ]
