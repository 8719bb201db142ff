(* Tests for ISV generation: static reachability, dynamic traces and
   audit-hardened views. *)

module Kernel = Pv_kernel.Kernel
module Callgraph = Pv_kernel.Callgraph
module Process = Pv_kernel.Process
module Sysno = Pv_kernel.Sysno
module Static_isv = Pv_isvgen.Static_isv
module Dynamic_isv = Pv_isvgen.Dynamic_isv
module Audit = Pv_isvgen.Audit
module Isv = Perspective.Isv
module Bitset = Pv_util.Bitset

let check = Alcotest.check

let kernel = Kernel.create ~seed:42 ()

let graph = Kernel.graph kernel

let workload =
  [ (Sysno.sys_read, [| 4096 |]); (Sysno.sys_poll, [| 64 |]); (Sysno.sys_mmap, [| 1 |]);
    (Sysno.sys_munmap, [||]) ]

let proc = Kernel.spawn kernel ~name:"isvgen-test"

let () = Dynamic_isv.profile kernel proc ~workload ~repetitions:40

let ctx = Process.cgroup proc

let syscalls = List.sort_uniq compare (List.map fst workload)

let test_static_kind_and_entries () =
  let isv = Static_isv.generate graph ~syscalls in
  List.iter
    (fun nr ->
      Alcotest.(check bool) "entry in view" true
        (Isv.member isv (Callgraph.entry_of_syscall graph nr)))
    syscalls;
  Alcotest.(check bool) "unused syscall's entry outside" false
    (Isv.member isv (Callgraph.entry_of_syscall graph Sysno.sys_fork))

let test_static_excludes_indirect_pool () =
  let nodes = Static_isv.node_set graph ~syscalls in
  let lo, hi = Callgraph.indirect_pool_bounds graph in
  for n = lo to hi - 1 do
    if Bitset.mem nodes n then Alcotest.fail "indirect-only node in static ISV"
  done

let test_static_monotone_in_syscalls () =
  let small = Static_isv.node_set graph ~syscalls:[ Sysno.sys_read ] in
  let big = Static_isv.node_set graph ~syscalls:[ Sysno.sys_read; Sysno.sys_poll ] in
  Alcotest.(check bool) "more syscalls, larger view" true
    (List.for_all (Bitset.mem big) (Bitset.elements small))

let test_dynamic_traced_and_smaller () =
  let dyn = Dynamic_isv.node_set kernel ~ctx in
  let sta = Static_isv.node_set graph ~syscalls in
  Alcotest.(check bool) "dynamic nonempty" true (Bitset.count dyn > 0);
  Alcotest.(check bool) "dynamic smaller than static" true
    (Bitset.count dyn < Bitset.count sta);
  let isv = Dynamic_isv.generate kernel ~ctx in
  check Alcotest.(list int) "view = traced nodes" (Bitset.elements dyn)
    (Bitset.elements (Isv.nodes isv))

let test_dynamic_can_include_indirect_targets () =
  (* Dynamic views may contain indirect-pool functions that static analysis
     must exclude — the paper's key advantage of dynamic ISVs. *)
  let dyn = Dynamic_isv.node_set kernel ~ctx in
  let lo, hi = Callgraph.indirect_pool_bounds graph in
  let in_pool = ref 0 in
  for n = lo to hi - 1 do
    if Bitset.mem dyn n then incr in_pool
  done;
  Alcotest.(check bool) "traced indirect targets present" true (!in_pool > 0)

let test_audit_hardening () =
  let dyn = Dynamic_isv.generate kernel ~ctx in
  let some_members =
    List.filteri (fun i _ -> i < 5) (Bitset.elements (Isv.nodes dyn))
  in
  let gadget_nodes = some_members in
  let hardened = Audit.harden dyn ~gadget_nodes in
  List.iter
    (fun n -> Alcotest.(check bool) "gadget excluded" false (Isv.member hardened n))
    some_members;
  check Alcotest.int "size shrank by members present"
    (Isv.size dyn - List.length some_members)
    (Isv.size hardened);
  Alcotest.(check bool) "original untouched" true
    (List.for_all (Isv.member dyn) some_members)

let suite =
  [
    ( "isvgen.static",
      [
        Alcotest.test_case "entries and kind" `Quick test_static_kind_and_entries;
        Alcotest.test_case "indirect pool excluded" `Quick test_static_excludes_indirect_pool;
        Alcotest.test_case "monotone in syscalls" `Quick test_static_monotone_in_syscalls;
      ] );
    ( "isvgen.dynamic",
      [
        Alcotest.test_case "traced subset" `Quick test_dynamic_traced_and_smaller;
        Alcotest.test_case "indirect targets captured" `Quick
          test_dynamic_can_include_indirect_targets;
      ] );
    ( "isvgen.audit",
      [
        Alcotest.test_case "hardening" `Quick test_audit_hardening;
      ] );
  ]
