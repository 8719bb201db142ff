(* End-to-end attack proof-of-concepts: every verdict below is measured from
   simulated microarchitectural state (flush+reload over the covert
   channel), not asserted. *)

module Defense = Perspective.Defense
module Isv = Perspective.Isv
module V1 = Pv_attacks.Spectre_v1
module V2 = Pv_attacks.Spectre_v2
module Rsb = Pv_attacks.Spectre_rsb
module Lab = Pv_attacks.Lab
module Cve = Pv_attacks.Cve_study

let check = Alcotest.check

let test_v1_leaks_on_unsafe () =
  let o = V1.run ~scheme:Defense.Unsafe () in
  Alcotest.(check bool) "leaks" true o.Lab.success;
  check Alcotest.(option int) "exact secret" (Some o.Lab.secret) o.Lab.leaked

let test_v1_different_seeds () =
  List.iter
    (fun seed ->
      let o = V1.run ~seed ~scheme:Defense.Unsafe () in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d leaks" seed)
        true o.Lab.success)
    [ 1; 2; 3; 99 ]

let test_v1_blocked_by_defenses () =
  List.iter
    (fun scheme ->
      let o = V1.run ~scheme () in
      Alcotest.(check bool)
        (Defense.scheme_name scheme ^ " blocks v1")
        false o.Lab.success;
      Alcotest.(check bool) "and fences fired" true (o.Lab.fences > 0))
    [
      Defense.Fence;
      Defense.Stt;
      Defense.Perspective Isv.Static;
      Defense.Perspective Isv.Dynamic;
      Defense.Perspective Isv.Plus;
    ]

let test_v1_cve_variants_leak () =
  (* Table 4.1 gadget shapes: every variant leaks the exact secret on
     unprotected hardware. *)
  List.iter
    (fun (o : Lab.outcome) ->
      Alcotest.(check bool) "variant leaks" true o.Lab.success)
    (V1.run_variants ~scheme:Defense.Unsafe ())

let test_v1_cve_variants_blocked () =
  List.iter
    (fun (o : Lab.outcome) ->
      Alcotest.(check bool) "variant blocked by Perspective" false o.Lab.success)
    (V1.run_variants ~scheme:(Defense.Perspective Isv.Dynamic) ())

let test_v1_blocked_by_dom () =
  let o = V1.run ~scheme:Defense.Dom () in
  Alcotest.(check bool) "dom blocks v1" false o.Lab.success

let test_v2_leaks_on_unsafe () =
  let o = V2.run ~scheme:Defense.Unsafe () in
  Alcotest.(check bool) "leaks" true o.Lab.success

let test_v2_dsv_only_cannot_stop_passive () =
  (* The paper's taxonomy claim: DSVs are powerless against passive attacks
     because every access is to victim-owned data. *)
  let o = V2.run ~scheme:(Defense.Perspective Isv.All) () in
  Alcotest.(check bool) "DSV-only leaks" true o.Lab.success

let test_v2_blocked_by_isv () =
  List.iter
    (fun scheme ->
      let o = V2.run ~scheme () in
      Alcotest.(check bool) (Defense.scheme_name scheme ^ " blocks v2") false o.Lab.success)
    [
      Defense.Perspective Isv.Static;
      Defense.Perspective Isv.Dynamic;
      Defense.Perspective Isv.Plus;
      Defense.Fence;
      Defense.Dom;
      Defense.Stt;
    ]

let test_rsb_leaks_on_unsafe () =
  let o = Rsb.run ~scheme:Defense.Unsafe () in
  Alcotest.(check bool) "leaks" true o.Lab.success

let test_rsb_blocked_by_defenses () =
  List.iter
    (fun scheme ->
      let o = Rsb.run ~scheme () in
      Alcotest.(check bool) (Defense.scheme_name scheme ^ " blocks rsb") false o.Lab.success)
    [
      Defense.Fence;
      Defense.Perspective Isv.Static;
      Defense.Perspective Isv.Dynamic;
      Defense.Perspective Isv.Plus;
    ]

let test_run_all_shapes () =
  let v1 = V1.run_all () in
  check Alcotest.int "v1 schemes" 9 (List.length v1);
  Alcotest.(check bool) "exactly one v1 success (UNSAFE)" true
    (List.length (List.filter (fun o -> o.Lab.success) v1) = 1);
  let v2 = V2.run_all () in
  check Alcotest.int "v2 schemes" 10 (List.length v2);
  Alcotest.(check bool) "exactly two v2 successes (UNSAFE, DSV-only)" true
    (List.length (List.filter (fun o -> o.Lab.success) v2) = 2)

let test_patch_demo () =
  let d = V2.run_patch_demo () in
  Alcotest.(check bool) "trusted gadget leaks despite PERSPECTIVE" true
    d.V2.before_patch.Lab.success;
  Alcotest.(check bool) "live exclusion blocks it" false d.V2.after_patch.Lab.success

let test_cve_study () =
  let count p = List.length (List.filter (fun r -> r.Cve.primitive = p) Cve.rows) in
  check Alcotest.int "nine rows" 9 (List.length Cve.rows);
  check Alcotest.int "four data-access rows" 4 (count Cve.Unauthorized_data_access);
  check Alcotest.int "five hijack rows" 5 (count Cve.Control_flow_hijack);
  List.iteri
    (fun i r ->
      check Alcotest.int "indices dense" (i + 1) r.Cve.index;
      Alcotest.(check bool) "has references" true (r.Cve.references <> []))
    Cve.rows

let suite =
  [
    ( "attacks.spectre_v1",
      [
        Alcotest.test_case "leaks on UNSAFE" `Quick test_v1_leaks_on_unsafe;
        Alcotest.test_case "robust across seeds" `Quick test_v1_different_seeds;
        Alcotest.test_case "blocked by defenses" `Quick test_v1_blocked_by_defenses;
        Alcotest.test_case "blocked by DOM" `Quick test_v1_blocked_by_dom;
        Alcotest.test_case "Table 4.1 variants leak on UNSAFE" `Quick
          test_v1_cve_variants_leak;
        Alcotest.test_case "Table 4.1 variants blocked" `Quick
          test_v1_cve_variants_blocked;
      ] );
    ( "attacks.spectre_v2",
      [
        Alcotest.test_case "leaks on UNSAFE" `Quick test_v2_leaks_on_unsafe;
        Alcotest.test_case "DSV-only cannot stop passive" `Quick
          test_v2_dsv_only_cannot_stop_passive;
        Alcotest.test_case "blocked by ISVs and baselines" `Quick test_v2_blocked_by_isv;
      ] );
    ( "attacks.spectre_rsb",
      [
        Alcotest.test_case "leaks on UNSAFE" `Quick test_rsb_leaks_on_unsafe;
        Alcotest.test_case "blocked by defenses" `Quick test_rsb_blocked_by_defenses;
      ] );
    ( "attacks.summary",
      [
        Alcotest.test_case "run_all shapes" `Quick test_run_all_shapes;
        Alcotest.test_case "swift gadget patching" `Quick test_patch_demo;
        Alcotest.test_case "CVE study table" `Quick test_cve_study;
      ] );
  ]
