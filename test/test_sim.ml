(* Full-system machine tests: lifecycle, syscall plumbing, defenses
   end-to-end, and workload/driver construction. *)

module Machine = Pv_sim.Machine
module Pipeline = Pv_uarch.Pipeline
module Kernel = Pv_kernel.Kernel
module Process = Pv_kernel.Process
module Sysno = Pv_kernel.Sysno
module Trace = Pv_kernel.Trace
module Defense = Perspective.Defense
module Isv = Perspective.Isv
module Driver = Pv_workloads.Driver
module Lebench = Pv_workloads.Lebench
module Apps = Pv_workloads.Apps
module Bitset = Pv_util.Bitset

let check = Alcotest.check

let make_machine ?(iterations = 5) ?(sequence = [ (Sysno.sys_getpid, [||]) ]) () =
  let m = Machine.create ~seed:11 ~syscalls:(Driver.syscalls_of sequence) () in
  let h =
    Machine.add_process m ~name:"t"
      ~user_funcs:(Driver.build ~iterations ~sequence ~user_work:3)
      ~entry:0
  in
  Machine.freeze m;
  (m, h)

let test_machine_lifecycle () =
  let m, h = make_machine () in
  let result, delta = Machine.run m h in
  Alcotest.(check bool) "halts" true (result.Pipeline.outcome = Pipeline.Halted);
  check Alcotest.int "five syscalls" 5 delta.Pipeline.syscalls;
  Alcotest.(check bool) "kernel instructions ran" true (delta.Pipeline.committed_kernel > 0)

let test_machine_getpid_return () =
  let sequence = [ (Sysno.sys_getpid, [||]) ] in
  let m, h = make_machine ~iterations:1 ~sequence () in
  let result, _ = Machine.run m h in
  (* r15 carries the last syscall's return value: the pid. *)
  check Alcotest.int "pid returned" (Process.pid (Machine.process h)) result.Pipeline.regs.(15)

let test_machine_freeze_discipline () =
  let m = Machine.create ~seed:1 ~syscalls:[ Sysno.sys_getpid ] () in
  Alcotest.(check bool) "freeze without processes rejected" true
    (try Machine.freeze m; false with Invalid_argument _ -> true);
  let m2 = Machine.create ~seed:1 ~syscalls:[ Sysno.sys_getpid ] () in
  let _ =
    Machine.add_process m2 ~name:"a"
      ~user_funcs:(Driver.build ~iterations:1 ~sequence:[] ~user_work:1)
      ~entry:0
  in
  Machine.freeze m2;
  Alcotest.(check bool) "double freeze rejected" true
    (try Machine.freeze m2; false with Invalid_argument _ -> true);
  Alcotest.(check bool) "add after freeze rejected" true
    (try
       ignore
         (Machine.add_process m2 ~name:"b"
            ~user_funcs:(Driver.build ~iterations:1 ~sequence:[] ~user_work:1)
            ~entry:0);
       false
     with Invalid_argument _ -> true)

let test_machine_profile_feeds_traces () =
  let sequence = [ (Sysno.sys_read, [| 4096 |]) ] in
  let m, h = make_machine ~sequence () in
  Machine.profile m h ~workload:sequence ~repetitions:10;
  let ctx = Process.cgroup (Machine.process h) in
  let traced = Trace.nodes (Kernel.trace (Machine.kernel m)) ~ctx in
  Alcotest.(check bool) "functions traced" true (Bitset.count traced > 0);
  (* Every realized kernel function of the read path must be traced —
     the trace is what executes. *)
  match Pv_kernel.Kimage.desc (Machine.kimage m) Sysno.sys_read with
  | Some d ->
    Alcotest.(check bool) "entry traced" true (Bitset.mem traced d.Pv_kernel.Kimage.entry_node);
    List.iter
      (fun fid ->
        match Pv_kernel.Kimage.node_of_fid (Machine.kimage m) fid with
        | Some n -> Alcotest.(check bool) "helper traced" true (Bitset.mem traced n)
        | None -> ())
      d.Pv_kernel.Kimage.helper_fids
  | None -> Alcotest.fail "read not realized"

let test_machine_defense_wiring () =
  let sequence = [ (Sysno.sys_poll, [| 64 |]) ] in
  let m, h = make_machine ~iterations:10 ~sequence () in
  Machine.profile m h ~workload:sequence ~repetitions:10;
  Machine.install_defense m (Defense.Perspective Isv.Dynamic);
  Alcotest.(check bool) "defense installed" true (Machine.defense m <> None);
  let result, delta = Machine.run m h in
  Alcotest.(check bool) "halts" true (result.Pipeline.outcome = Pipeline.Halted);
  Alcotest.(check bool) "view caches exercised" true
    (match Machine.defense m with
    | Some d ->
      Perspective.Svcache.accesses (Defense.isv_cache d) > 0
    | None -> false);
  ignore delta

let test_machine_determinism () =
  let run () =
    let m, h = make_machine ~iterations:8 ~sequence:[ (Sysno.sys_read, [| 4096 |]) ] () in
    let r, _ = Machine.run m h in
    r.Pipeline.cycles
  in
  check Alcotest.int "identical cycles across builds" (run ()) (run ())

let test_machine_table_va () =
  let sequence = [ (Sysno.sys_poll, [| 8 |]) ] in
  let m, _ = make_machine ~sequence () in
  let slots nr =
    match Pv_kernel.Kimage.desc (Machine.kimage m) nr with
    | Some d -> Array.length d.Pv_kernel.Kimage.table_nodes
    | None -> 0
  in
  Alcotest.(check bool) "poll has a dispatch table" true (slots Sysno.sys_poll > 0);
  check Alcotest.int "unrealized syscall has none" 0 (slots Sysno.sys_fork)

let test_unsafe_faster_than_fence () =
  let cycles scheme =
    let sequence = [ (Sysno.sys_select, [| 64 |]) ] in
    let m, h = make_machine ~iterations:15 ~sequence () in
    Machine.profile m h ~workload:sequence ~repetitions:10;
    Machine.install_defense m scheme;
    (fst (Machine.run m h)).Pipeline.cycles
  in
  let unsafe = cycles Defense.Unsafe in
  let fence = cycles Defense.Fence in
  let perspective = cycles (Defense.Perspective Isv.Dynamic) in
  Alcotest.(check bool)
    (Printf.sprintf "unsafe (%d) < perspective (%d) < fence (%d)" unsafe perspective fence)
    true
    (unsafe <= perspective && perspective < fence)

(* --- workloads --- *)

let test_driver_syscalls_of () =
  check Alcotest.(list int) "dedup sorted"
    (List.sort compare [ Sysno.sys_read; Sysno.sys_write ])
    (Driver.syscalls_of
       [ (Sysno.sys_write, [||]); (Sysno.sys_read, [||]); (Sysno.sys_read, [||]) ])

let test_lebench_suite () =
  check Alcotest.int "19 tests" 19 (List.length Lebench.tests);
  let names = List.map (fun t -> t.Lebench.name) Lebench.tests in
  check Alcotest.int "unique names" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun t ->
      Alcotest.(check bool) "has syscalls" true (t.Lebench.sequence <> []);
      Alcotest.(check bool) "positive iterations" true (t.Lebench.iterations > 0))
    Lebench.tests;
  Alcotest.(check bool) "find works" true ((Lebench.find "select").Lebench.name = "select");
  let scaled = Lebench.scaled (Lebench.find "ref") ~factor:0.1 in
  check Alcotest.int "scaling" 20 scaled.Lebench.iterations

let test_apps_definitions () =
  check Alcotest.int "four apps" 4 (List.length Apps.all);
  List.iter
    (fun app ->
      Alcotest.(check bool) "hot loop nonempty" true (app.Apps.request <> []);
      Alcotest.(check bool) "realistic footprint" true
        (List.length (Apps.footprint app) >= 15);
      Alcotest.(check bool) "baseline rps recorded" true (app.Apps.paper_unsafe_krps > 0.0))
    Apps.all

let test_driver_program_runs () =
  (* A driver must execute architecturally on the ISS with null syscalls. *)
  let funcs =
    Driver.build ~iterations:3
      ~sequence:[ (Sysno.sys_getpid, [||]) ]
      ~user_work:4 ~base_fid:0
  in
  let prog = Pv_isa.Program.of_funcs funcs in
  let r = Pv_isa.Iss.run ~asid:1 ~mem:(Pv_isa.Mem.create ()) prog ~start:0 in
  Alcotest.(check bool) "halts" true (r.Pv_isa.Iss.outcome = Pv_isa.Iss.Halted)

let suite =
  [
    ( "sim.machine",
      [
        Alcotest.test_case "lifecycle" `Quick test_machine_lifecycle;
        Alcotest.test_case "syscall return value" `Quick test_machine_getpid_return;
        Alcotest.test_case "freeze discipline" `Quick test_machine_freeze_discipline;
        Alcotest.test_case "profiling feeds traces" `Quick test_machine_profile_feeds_traces;
        Alcotest.test_case "defense wiring" `Quick test_machine_defense_wiring;
        Alcotest.test_case "determinism" `Quick test_machine_determinism;
        Alcotest.test_case "dispatch tables" `Quick test_machine_table_va;
        Alcotest.test_case "scheme ordering" `Quick test_unsafe_faster_than_fence;
      ] );
    ( "sim.workloads",
      [
        Alcotest.test_case "driver syscall extraction" `Quick test_driver_syscalls_of;
        Alcotest.test_case "LEBench suite" `Quick test_lebench_suite;
        Alcotest.test_case "app definitions" `Quick test_apps_definitions;
        Alcotest.test_case "driver runs" `Quick test_driver_program_runs;
      ] );
  ]
