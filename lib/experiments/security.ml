module Tab = Pv_util.Tab

type poc = {
  attack : string;
  scheme : string;
  leaked : bool;
  correct : bool;
  fences : int;
}

(* Each PoC family is one self-contained cell (a family's run_all builds a
   fresh machine per scheme and shares nothing); a sweep returns families in
   declaration order, so the verdict list is identical for every [-j]. *)
let families ?(seed = 7) () =
  let family attack outcomes () =
    List.map
      (fun (o : Pv_attacks.Lab.outcome) ->
        {
          attack;
          scheme = o.scheme;
          leaked = o.leaked <> None;
          correct = o.success;
          fences = o.fences;
        })
      (outcomes ())
  in
  [
    ("v1", family "Spectre v1 (active)" (Pv_attacks.Spectre_v1.run_all ~seed));
    ("v2", family "Spectre v2 (passive)" (Pv_attacks.Spectre_v2.run_all ~seed:(seed + 1)));
    ("rsb", family "Spectre-RSB (passive)" (Pv_attacks.Spectre_rsb.run_all ~seed:(seed + 2)));
  ]

let family_names = [ "v1"; "v2"; "rsb" ]

let run_pocs_cells ?(seed = 7) ?(attacks = family_names) () =
  List.iter
    (fun a ->
      if not (List.mem a family_names) then
        invalid_arg
          (Printf.sprintf "unknown attack family %S (valid: %s)" a
             (String.concat ", " family_names)))
    attacks;
  List.filter_map
    (fun (name, family) ->
      if not (List.mem name attacks) then None
      else
        Some
          (Supervise.cell
             ~cache:(Printf.sprintf "security/pocs|family=%s|seed=%d" name seed)
             ("pocs/" ^ name)
             (fun ~fuel:_ -> family ())))
    (families ~seed ())

let poc_table pocs =
  let tab =
    Tab.create ~title:"Chapter 8: Proof-of-concept attacks (measured from the covert channel)"
      ~header:
        [
          ("Attack", Tab.Left);
          ("Scheme", Tab.Left);
          ("Result", Tab.Left);
          ("Fences", Tab.Right);
        ]
  in
  List.iter
    (fun p ->
      Tab.row tab
        [
          p.attack;
          p.scheme;
          (if p.correct then "SECRET LEAKED"
           else if p.leaked then "noise"
           else "blocked");
          string_of_int p.fences;
        ])
    pocs;
  Tab.caption tab
    "Paper: DSVs eliminate all active attacks; ISVs block passive attacks whose \
     gadgets are outside the view. DSV-only (PERSPECTIVE-ALL) cannot stop the \
     passive v2 attack - exactly the taxonomy's prediction.";
  tab

let poc_table_partial results =
  let pocs = List.concat_map (fun (_, o) -> Option.value ~default:[] o) results in
  let tab = poc_table pocs in
  List.iter
    (fun (key, o) ->
      if o = None then
        Tab.caption tab (Printf.sprintf "%s: FAILED - this family's verdicts are missing." key))
    results;
  tab

let cve_table () =
  let tab =
    Tab.create
      ~title:"Table 4.1: Speculative-execution vulnerabilities targeting the Linux kernel"
      ~header:
        [
          ("#", Tab.Right);
          ("Attack primitive", Tab.Left);
          ("Insufficient mitigation", Tab.Left);
          ("CVEs and papers", Tab.Left);
          ("Description", Tab.Left);
          ("Origin", Tab.Left);
        ]
  in
  List.iter
    (fun (r : Pv_attacks.Cve_study.row) ->
      Tab.row tab
        [
          string_of_int r.index;
          Pv_attacks.Cve_study.primitive_name r.primitive;
          Pv_attacks.Cve_study.insufficiency_name r.insufficiency;
          String.concat ", " r.references;
          r.description;
          r.origin;
        ])
    Pv_attacks.Cve_study.rows;
  tab
