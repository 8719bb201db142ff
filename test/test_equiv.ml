(* Golden commit-stream equivalence suite.

   The pipeline cycle loop was rewritten for speed (preallocated ROB entry
   pool, allocation-free cache paths, sound work-skipping); Perspective's
   security claims rest on exact microarchitectural state, so the rewrite
   must be provably byte-identical to the seed model.  Three gates enforce
   that:

   1. Pinned (workload x scheme) cells run through the full Machine and are
      compared — commit-stream digest, cycles, committed count, stall-class
      totals, fence counts and the metrics-snapshot JSON digest — against
      goldens recorded with the PRE-optimization seed pipeline (committed in
      test/equiv.golden; regenerate with
      [PV_EQUIV_RECORD=$PWD/test/equiv.golden dune exec test/main.exe -- test equiv]).

   2. Seeded random programs run through the optimized [Pipeline], the frozen
      seed copy [Pipeline_ref] and the in-order ISS: all three must agree on
      the architectural commit stream, final registers and memory; the two
      pipelines must also agree on cycle counts and stall attribution, which
      the ISS cannot check.  Each program then runs through both pipelines
      again, traced, under two logging guards (fence every speculative load;
      fence only speculative L1 misses), and the two must agree on the event
      trace, every guard query and Visibility-Point notification, the commit
      stream, final state, cycles, stall attribution and the squash,
      speculative-load and fence counters.  A third run gives [Pipeline] the
      fence-every-speculative-load guard with [holds_to_vp] set, so it asks
      once per block and waits for the load's branch, against the
      reference's re-querying one: the same must agree, except the repeated
      [block] answers.

   3. Small lebench and apps matrices run as supervised sweeps at -j 1 and
      -j 4: the experiment tables must be byte-identical to each other and to
      the recorded golden digests. *)

module I = Pv_isa.Insn
module Layout = Pv_isa.Layout
module Mem = Pv_isa.Mem
module Program = Pv_isa.Program
module Asm = Pv_isa.Asm
module Guard = Pv_uarch.Guard
module Memsys = Pv_uarch.Memsys
module Pipeline = Pv_uarch.Pipeline
module Rng = Pv_util.Rng
module Metrics = Pv_util.Metrics
module Tab = Pv_util.Tab
module Perf = Pv_experiments.Perf
module Perf_report = Pv_experiments.Perf_report
module Schemes = Pv_experiments.Schemes
module Supervise = Pv_experiments.Supervise
module Lebench = Pv_workloads.Lebench
module Apps = Pv_workloads.Apps

let check = Alcotest.check

(* --- incremental FNV-1a, so commit streams digest without buffering ----- *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv_str h s =
  let h = ref h in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  !h

let hex h = Printf.sprintf "%016Lx" h

let digest s = hex (fnv_str fnv_offset s)

(* --- pinned cells ------------------------------------------------------- *)

(* Small but representative: two LEBench syscall tests and one app, each
   under the three headline schemes.  Scale is pinned; any change to these
   inputs invalidates the goldens. *)
let cell_scale = 0.05

let cell_specs =
  List.concat_map
    (fun scheme ->
      [ ("lebench", "read", scheme); ("lebench", "select", scheme) ])
    [ "UNSAFE"; "FENCE"; "PERSPECTIVE" ]
  @ [ ("apps", "httpd", "UNSAFE"); ("apps", "httpd", "PERSPECTIVE") ]

let stalls_field counters =
  Pipeline.stall_classes counters
  |> List.map (fun (name, v) -> Printf.sprintf "%s:%d" name v)
  |> String.concat ","

(* The commit stream of a run, observed on a [Machine.run_job] of its own
   with the inputs [Perf] gives the cell (seed 42, unknown allocations
   blocked, 128-entry view caches); observing commits changes no timing. *)
let commit_stream ~syscalls ~name ~sequence ~iterations ~user_work (variant : Schemes.variant) =
  let h = ref fnv_offset in
  let on_commit fid idx _ = h := fnv_str !h (Printf.sprintf "%d:%d;" fid idx) in
  ignore
    (Pv_sim.Machine.run_job ~on_commit
       ~pipe_config:(variant.Schemes.transform Pipeline.default_config)
       ~block_unknown:true ~view_cache_entries:128 ~seed:42 ~syscalls ~name
       ~user_funcs:(Pv_workloads.Driver.build ~iterations ~sequence ~user_work)
       ~profile:sequence variant.Schemes.scheme);
  !h

let run_cell (family, workload, scheme) =
  let variant = Schemes.find scheme in
  let r, h =
    match family with
    | "lebench" ->
      let test = Lebench.find workload in
      let cell =
        List.hd (Perf.lebench_cells ~scale:cell_scale ~tests:[ test ] ~variants:[ variant ] ())
      in
      let t = Lebench.scaled test ~factor:cell_scale in
      ( cell.Supervise.run ~fuel:None,
        commit_stream ~syscalls:Lebench.all_syscalls ~name:t.Lebench.name
          ~sequence:t.Lebench.sequence ~iterations:t.Lebench.iterations
          ~user_work:t.Lebench.user_work variant )
    | "apps" ->
      let app = List.find (fun a -> a.Apps.name = workload) Apps.all in
      let a = Apps.scaled app ~factor:cell_scale in
      ( Perf.run_app ~scale:cell_scale variant app,
        commit_stream ~syscalls:Apps.all_syscalls ~name:a.Apps.name ~sequence:a.Apps.request
          ~iterations:a.Apps.requests ~user_work:a.Apps.user_work variant )
    | _ -> invalid_arg "run_cell: unknown family"
  in
  let key = Printf.sprintf "%s/%s/%s" family workload scheme in
  let line =
    Printf.sprintf "cell %s|cycles=%d|committed=%d|stream=%s|stalls=%s|fences=%d,%d,%d|metrics=%s"
      key r.Perf.cycles r.Perf.committed (hex h)
      (stalls_field r.Perf.counters)
      r.Perf.counters.Pipeline.fences_isv r.Perf.counters.Pipeline.fences_dsv
      r.Perf.counters.Pipeline.fences_baseline
      (digest (Metrics.snapshot_to_json r.Perf.metrics))
  in
  (key, line)

(* --- small experiment matrices, -j 1 vs -j 4 ---------------------------- *)

let matrix_tests () = [ Lebench.find "read"; Lebench.find "select" ]

let matrix_apps = [ Apps.httpd; Apps.memcached ]

let matrix_variants = [ "UNSAFE"; "FENCE"; "PERSPECTIVE" ]

let supervised_matrix ~jobs ~names cells =
  let sweep = Supervise.run ~config:{ Supervise.default with jobs } cells in
  let m = Perf.matrix_of_sweep ~names ~width:(List.length matrix_variants) sweep in
  match Perf.complete_matrix m with
  | Some full -> (m, full)
  | None -> Alcotest.failf "matrix at -j %d has failed cells" jobs

let lebench_bytes ~jobs =
  let tests = matrix_tests () in
  let m, full =
    supervised_matrix ~jobs
      ~names:(List.map (fun t -> t.Lebench.name) tests)
      (Perf.lebench_cells ~scale:cell_scale ~tests
         ~variants:(List.map Schemes.find matrix_variants) ())
  in
  Tab.to_string (Perf_report.fig_lebench_partial ~labels:matrix_variants m)
  ^ Tab.to_string (Perf_report.fence_breakdown full)
  ^ Tab.to_string (Perf_report.stall_breakdown full)

let apps_bytes ~jobs =
  let m, full =
    supervised_matrix ~jobs
      ~names:(List.map (fun a -> a.Apps.name) matrix_apps)
      (Perf.apps_cells ~scale:cell_scale ~apps:matrix_apps
         ~variants:(List.map Schemes.find matrix_variants) ())
  in
  Tab.to_string (Perf_report.fig_apps_partial ~labels:matrix_variants m)
  ^ Tab.to_string (Perf_report.kernel_time_table full)

(* --- golden file -------------------------------------------------------- *)

(* Under [dune runtest] the cwd is the sandboxed test dir (the (deps) copy of
   equiv.golden sits beside the binary); under [dune exec test/main.exe] it is
   the workspace root. *)
let golden_path () =
  if Sys.file_exists "equiv.golden" then "equiv.golden" else "test/equiv.golden"

let record_path () = Sys.getenv_opt "PV_EQUIV_RECORD"

let read_goldens () =
  let ic = open_in (golden_path ()) in
  let tbl = Hashtbl.create 32 in
  (try
     while true do
       let line = input_line ic in
       if line <> "" && line.[0] <> '#' then
         match String.index_opt line '|' with
         | Some i -> Hashtbl.replace tbl (String.sub line 0 i) line
         | None -> ()
     done
   with End_of_file -> ());
  close_in ic;
  tbl

let golden_key line =
  match String.index_opt line '|' with
  | Some i -> String.sub line 0 i
  | None -> line

let current_lines () =
  let cells = List.map (fun spec -> snd (run_cell spec)) cell_specs in
  let b1 = lebench_bytes ~jobs:1 in
  check Alcotest.string "lebench tables byte-identical for -j 1 and -j 4" b1
    (lebench_bytes ~jobs:4);
  let a1 = apps_bytes ~jobs:1 in
  check Alcotest.string "apps tables byte-identical for -j 1 and -j 4" a1
    (apps_bytes ~jobs:4);
  cells
  @ [
      Printf.sprintf "table lebench-matrix|digest=%s" (digest b1);
      Printf.sprintf "table apps-matrix|digest=%s" (digest a1);
    ]

let test_goldens () =
  let lines = current_lines () in
  match record_path () with
  | Some path ->
    let oc = open_out path in
    output_string oc
      "# Pre-optimization golden equivalence records (seed pipeline).\n\
       # One line per pinned (workload x scheme) cell plus the rendered\n\
       # experiment-table digest.  Regenerate only when the cell inputs\n\
       # change, never to paper over a pipeline divergence:\n\
       #   PV_EQUIV_RECORD=$PWD/test/equiv.golden dune exec test/main.exe -- test equiv\n";
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc;
    Printf.printf "recorded %d golden lines to %s\n" (List.length lines) path
  | None ->
    let goldens = read_goldens () in
    List.iter
      (fun line ->
        let key = golden_key line in
        match Hashtbl.find_opt goldens key with
        | Some want -> check Alcotest.string key want line
        | None -> Alcotest.failf "no golden recorded for %s" key)
      lines

(* --- random programs: ISS vs optimized vs reference pipeline ------------ *)

(* [rob] is the ROB size (default 192) of every pipeline run below. *)
let default_rob = Pipeline.default_config.rob_entries

let run_opt ~rob prog =
  let stream = ref [] in
  let mem = Mem.create () in
  let config = { Pipeline.default_config with Pipeline.rob_entries = rob } in
  let pipe = Pipeline.create ~config (Memsys.create mem) prog in
  let hooks =
    {
      Pipeline.on_syscall = (fun _ -> Pv_isa.Iss.Skip);
      on_sysret = (fun _ -> Pv_isa.Iss.Skip);
      on_commit = Some (fun fid idx _ -> stream := (fid, idx) :: !stream);
    }
  in
  let r = Pipeline.run ~hooks pipe ~asid:1 ~start:0 in
  (r, List.rev !stream, mem, Pipeline.counters pipe)

let run_ref ~rob prog =
  let stream = ref [] in
  let mem = Mem.create () in
  let config = { Pipeline_ref.default_config with Pipeline_ref.rob_entries = rob } in
  let pipe = Pipeline_ref.create ~config (Memsys.create mem) prog in
  let hooks =
    {
      Pipeline_ref.null_hooks with
      Pipeline_ref.on_commit = Some (fun fid idx _ -> stream := (fid, idx) :: !stream);
    }
  in
  let r = Pipeline_ref.run ~hooks pipe ~asid:1 ~start:0 in
  (r, List.rev !stream, mem, Pipeline_ref.counters pipe)

let mem_words mem =
  List.init 64 (fun i ->
      Mem.load mem (Layout.phys_key ~asid:1 (Layout.user_data_base + (8 * i))))

let event_to_string (fid, idx) = Printf.sprintf "%d:%d" fid idx

(* A guard that fences the speculative loads [block] picks and logs every
   query with its decision and every Visibility-Point notification to [log],
   newest first.  [holds] sets [Guard.holds_to_vp]: only for a [block] that
   picks every load, so that [check] answers from [speculative] alone. *)
let logging_guard ~holds block log =
  let check q =
    let d =
      if q.Guard.speculative && block q then Guard.Block Guard.Baseline
      else Guard.Allow
    in
    log :=
      Printf.sprintf "check %#x addr=%d kernel=%b spec=%b l1=%b tainted=%b -> %s"
        q.Guard.insn_va q.Guard.addr q.Guard.kernel_mode q.Guard.speculative
        q.Guard.l1_hit q.Guard.tainted
        (if d = Guard.Allow then "allow" else "block")
      :: !log;
    d
  in
  let notify_vp ~insn_va ~addr ~asid ~kernel_mode =
    log :=
      Printf.sprintf "vp %#x addr=%d asid=%d kernel=%b" insn_va addr asid kernel_mode
      :: !log
  in
  {
    Guard.allow_all with
    Guard.name = "log";
    check;
    notify_vp = Some notify_vp;
    holds_to_vp = holds;
  }

(* Fence every speculative load, or (DOM-style) only the speculative L1
   misses; the third fences every speculative load and holds the block to
   the Visibility Point ([Pipeline] only: the reference re-queries). *)
let logged_guards =
  [
    ("block-all", (fun _ -> true), false);
    ("dom", (fun q -> not q.Guard.l1_hit), false);
    ("held block-all", (fun _ -> true), true);
  ]

(* What a traced run under a logging guard shows: the commit stream, final
   registers and memory, cycles, stall classes, the squash,
   speculative-load and ISV / DSV / baseline fence counters, the event ring
   as JSON lines and the guard log, oldest first. *)
type guarded = {
  g_stream : string list;
  g_regs : int array;
  g_mem : int list;
  g_cycles : int;
  g_stalls : (string * int) list;
  g_counters : int list;
  g_events : string list;
  g_log : string list;
}

(* [capacity] is the ring's size (default 4096). *)
let guarded_opt ?(capacity = Pipeline.default_config.trace_capacity) ~rob ~holds block prog =
  let log = ref [] and stream = ref [] in
  let config =
    {
      Pipeline.default_config with
      Pipeline.trace_events = true;
      trace_capacity = capacity;
      rob_entries = rob;
    }
  in
  let mem = Mem.create () in
  let pipe = Pipeline.create ~config (Memsys.create mem) prog in
  Pipeline.set_guard pipe (logging_guard ~holds block log);
  let hooks =
    {
      Pipeline.on_syscall = (fun _ -> Pv_isa.Iss.Skip);
      on_sysret = (fun _ -> Pv_isa.Iss.Skip);
      on_commit = Some (fun fid idx _ -> stream := (fid, idx) :: !stream);
    }
  in
  let r = Pipeline.run ~hooks pipe ~asid:1 ~start:0 in
  let c = Pipeline.counters pipe in
  {
    g_stream = List.rev_map event_to_string !stream;
    g_regs = r.Pipeline.regs;
    g_mem = mem_words mem;
    g_cycles = r.Pipeline.cycles;
    g_stalls = Pipeline.stall_classes c;
    g_counters =
      Pipeline.[ c.squashes; c.spec_loads; c.fences_isv; c.fences_dsv; c.fences_baseline ];
    g_events = List.map Pipeline.event_to_json (Pipeline.events pipe);
    g_log = List.rev !log;
  }

let guarded_ref ?(capacity = Pipeline_ref.default_config.trace_capacity) ~rob block prog =
  let log = ref [] and stream = ref [] in
  let config =
    {
      Pipeline_ref.default_config with
      Pipeline_ref.trace_events = true;
      trace_capacity = capacity;
      rob_entries = rob;
    }
  in
  let mem = Mem.create () in
  let pipe = Pipeline_ref.create ~config (Memsys.create mem) prog in
  Pipeline_ref.set_guard pipe (logging_guard ~holds:false block log);
  let hooks =
    {
      Pipeline_ref.null_hooks with
      Pipeline_ref.on_commit = Some (fun fid idx _ -> stream := (fid, idx) :: !stream);
    }
  in
  let r = Pipeline_ref.run ~hooks pipe ~asid:1 ~start:0 in
  let c = Pipeline_ref.counters pipe in
  {
    g_stream = List.rev_map event_to_string !stream;
    g_regs = r.Pipeline_ref.regs;
    g_mem = mem_words mem;
    g_cycles = r.Pipeline_ref.cycles;
    g_stalls = Pipeline_ref.stall_classes c;
    g_counters =
      Pipeline_ref.[ c.squashes; c.spec_loads; c.fences_isv; c.fences_dsv; c.fences_baseline ];
    g_events = List.map Pipeline_ref.event_to_json (Pipeline_ref.events pipe);
    g_log = List.rev !log;
  }

(* A held block asks once per block where the reference asks on every
   pass, so under [holds] the repeated [block] answers are left out. *)
let asked ~holds log =
  if holds then List.filter (fun l -> not (String.ends_with ~suffix:"-> block" l)) log else log

let assert_three_way ?(rob = default_rob) ~name prog =
  let iss, iss_stream, iss_mem = Test_oracle.run_iss prog in
  let opt, opt_stream, opt_mem, opt_ctrs = run_opt ~rob prog in
  let rf, ref_stream, ref_mem, ref_ctrs = run_ref ~rob prog in
  let label fmt = Printf.sprintf ("%s: " ^^ fmt) name in
  Alcotest.(check bool)
    (label "all three halted")
    true
    (iss.Pv_isa.Iss.outcome = Pv_isa.Iss.Halted
    && opt.Pipeline.outcome = Pipeline.Halted
    && rf.Pipeline_ref.outcome = Pipeline_ref.Halted);
  check
    Alcotest.(list string)
    (label "optimized commit stream = ISS")
    (List.map event_to_string iss_stream)
    (List.map event_to_string opt_stream);
  check
    Alcotest.(list string)
    (label "optimized commit stream = reference")
    (List.map event_to_string ref_stream)
    (List.map event_to_string opt_stream);
  check Alcotest.(array int) (label "registers = ISS") iss.Pv_isa.Iss.regs opt.Pipeline.regs;
  check Alcotest.(array int) (label "registers = reference") rf.Pipeline_ref.regs
    opt.Pipeline.regs;
  check Alcotest.(list int) (label "memory = ISS") (mem_words iss_mem) (mem_words opt_mem);
  check Alcotest.(list int) (label "memory = reference") (mem_words ref_mem)
    (mem_words opt_mem);
  check Alcotest.int (label "cycle count = reference") rf.Pipeline_ref.cycles
    opt.Pipeline.cycles;
  check Alcotest.int (label "committed = reference") rf.Pipeline_ref.committed
    opt.Pipeline.committed;
  check
    Alcotest.(list (pair string int))
    (label "stall classes = reference")
    (Pipeline_ref.stall_classes ref_ctrs)
    (Pipeline.stall_classes opt_ctrs);
  check Alcotest.int (label "squashes = reference") ref_ctrs.Pipeline_ref.squashes
    opt_ctrs.Pipeline.squashes;
  check Alcotest.int (label "spec loads = reference") ref_ctrs.Pipeline_ref.spec_loads
    opt_ctrs.Pipeline.spec_loads;
  List.iter
    (fun (guard, block, holds) ->
      let o = guarded_opt ~rob ~holds block prog in
      let r = guarded_ref ~rob block prog in
      let label fmt = Printf.sprintf ("%s, %s guard: " ^^ fmt) name guard in
      check Alcotest.(list string) (label "guard log = reference") (asked ~holds r.g_log)
        (asked ~holds o.g_log);
      check Alcotest.(list string) (label "events = reference") r.g_events o.g_events;
      check Alcotest.(list string) (label "commit stream = reference") r.g_stream o.g_stream;
      check Alcotest.(array int) (label "registers = reference") r.g_regs o.g_regs;
      check Alcotest.(list int) (label "memory = reference") r.g_mem o.g_mem;
      check Alcotest.int (label "cycle count = reference") r.g_cycles o.g_cycles;
      check
        Alcotest.(list (pair string int))
        (label "stall classes = reference") r.g_stalls o.g_stalls;
      check
        Alcotest.(list int)
        (label "squashes, spec loads, fences = reference")
        r.g_counters o.g_counters;
      (* Small rings: the optimized ring grows on demand (16 slots, then
         doubling) while the reference allocates all of it up front.  These
         capacities make it wrap at once, wrap before its first growth, and
         grow twice (16, 32, 33) before wrapping. *)
      List.iter
        (fun capacity ->
          check Alcotest.(list string)
            (label "events at capacity %d = reference" capacity)
            (guarded_ref ~capacity ~rob block prog).g_events
            (guarded_opt ~capacity ~rob ~holds block prog).g_events)
        [ 1; 3; 33 ])
    logged_guards

(* Both program generators: [gen_program]'s instruction mix, and
   [gen_program_wide]'s load chains, fences, unknown-address stores,
   flipping indirect calls and over-deep call nesting. *)
let generators =
  [ ("", Test_oracle.gen_program); ("wide ", Test_oracle.gen_program_wide) ]

let test_random_three_way () =
  (* A different seed base from test_oracle, so the two suites cover
     disjoint program samples. *)
  List.iter
    (fun (kind, gen) ->
      for seed = 1 to 40 do
        let rng = Rng.create (0xE0_1D_5E + seed) in
        assert_three_way ~name:(Printf.sprintf "%sseed %d" kind seed) (gen rng)
      done)
    generators

(* QCheck-driven seeds on top of the fixed sweep above (CI also runs it at
   25 times its count). *)
let random_program_prop =
  QCheck.Test.make ~name:"random program: pipeline = seed reference" ~count:20
    QCheck.(int_bound 0xFFFF)
    (fun seed ->
      List.iter
        (fun (kind, gen) ->
          let rng = Rng.create (0xAC4_000 + seed) in
          assert_three_way ~name:(Printf.sprintf "qcheck %sseed %d" kind seed) (gen rng))
        generators;
      true)

(* A load from a negative address ([li r1,-64; load r3,r1,0]): bare, and at
   the target of a branch on a cold load, which resolves ~100 cycles later.
   A cold predictor guesses taken, so the load issues speculatively: on the
   architectural path when the branch is taken, only on the wrong path when
   it is not. *)
let negative_load_program branch =
  let a = Asm.create () in
  let target = Asm.fresh_label a in
  Asm.li a 1 (-64);
  Option.iter
    (fun taken ->
      Asm.li a 8 Layout.user_data_base;
      Asm.load a 2 8 0;
      Asm.branch a (if taken then I.Eq else I.Ne) 2 14 target;
      Asm.halt a)
    branch;
  Asm.place a target;
  Asm.load a 3 1 0;
  Asm.halt a;
  Program.of_funcs
    [ { Program.fid = 0; name = "neg"; space = Layout.User; body = Asm.finish a } ]

let test_negative_addresses () =
  List.iter
    (fun (name, branch) -> assert_three_way ~name (negative_load_program branch))
    [
      ("bare negative load", None);
      ("negative load behind a taken branch", Some true);
      ("negative load on a not-taken branch's wrong path", Some false);
    ]

(* Wait lists past word 31.  A wait list's word mask has one bit per word
   of a slot set: 62 at the largest ROB, 1984 entries, where bits 32 and up
   lie past the reach of a 32-bit bit search.  A chain of four cold loads
   holds the ROB head for over 400 cycles while a predicted loop fetches 1600
   instructions, six in eight of them adds on the last load's value: the
   ROB fills, and that load's list holds waiters in every word of it. *)
let deep_wait_program () =
  let a = Asm.create () in
  let loop = Asm.fresh_label a in
  Asm.li a 8 Layout.user_data_base;
  Asm.load a 1 8 0;
  List.iteri
    (fun i (rd, rs) ->
      Asm.alu a I.Add 9 8 rs;
      Asm.load a rd 9 (4096 * (i + 1)))
    [ (2, 1); (3, 2); (4, 3) ];
  Asm.li a 5 200;
  Asm.place a loop;
  List.iteri (fun i rd -> Asm.alui a I.Add rd 4 i) [ 6; 7; 10; 11; 12; 13 ];
  Asm.alui a I.Sub 5 5 1;
  Asm.branch a I.Ne 5 14 loop;
  Asm.halt a;
  Program.of_funcs
    [ { Program.fid = 0; name = "deep"; space = Layout.User; body = Asm.finish a } ]

let test_deep_wait_lists () =
  assert_three_way ~rob:1984 ~name:"1984-entry ROB" (deep_wait_program ())

let suite =
  [
    ( "equiv",
      [
        Alcotest.test_case "pinned cells + tables vs seed goldens" `Slow test_goldens;
        Alcotest.test_case "random programs: ISS = optimized = reference" `Slow
          test_random_three_way;
        QCheck_alcotest.to_alcotest random_program_prop;
        Alcotest.test_case "negative addresses: ISS = optimized = reference" `Quick
          test_negative_addresses;
        Alcotest.test_case "1984-entry ROB: wait lists past word 31 = reference" `Quick
          test_deep_wait_lists;
      ] );
  ]
