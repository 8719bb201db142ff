module Defense = Perspective.Defense
module Isv = Perspective.Isv
module Pipeline = Pv_uarch.Pipeline
module Cache = Pv_uarch.Cache
module Memsys = Pv_uarch.Memsys
module Checksum = Pv_util.Checksum
module Tab = Pv_util.Tab
module Supervise = Pv_experiments.Supervise
module Lab = Pv_attacks.Lab
module V1 = Pv_attacks.Spectre_v1
module V2 = Pv_attacks.Spectre_v2
module Rsb = Pv_attacks.Spectre_rsb

(* ------------------------------------------------------------------ *)
(* Attack and scheme registries                                        *)
(* ------------------------------------------------------------------ *)

type attack = A_v1 of V1.variant | A_v2 | A_rsb

(* Seed offsets mirror Security.families: v1 = seed, v2 = seed+1,
   rsb = seed+2, so a contract run and a security run of the same seed
   exercise identical machines. *)
let attacks =
  [
    ("v1-index", A_v1 V1.Array_index, 0);
    ("v1-ptr", A_v1 V1.Pointer_arith, 0);
    ("v1-type", A_v1 V1.Type_confusion, 0);
    ("v2", A_v2, 1);
    ("rsb", A_rsb, 2);
  ]

let attack_names = List.map (fun (n, _, _) -> n) attacks

let find_attack name =
  match List.find_opt (fun (n, _, _) -> n = name) attacks with
  | Some (_, a, off) -> (a, off)
  | None ->
    invalid_arg
      (Printf.sprintf "unknown attack %S (valid: %s)" name
         (String.concat ", " attack_names))

let schemes =
  [
    Defense.Unsafe;
    Defense.Fence;
    Defense.Dom;
    Defense.Stt;
    Defense.Perspective Isv.Static;
    Defense.Perspective Isv.Dynamic;
    Defense.Perspective Isv.Plus;
    Defense.Perspective Isv.All;
    Defense.Safespec;
    Defense.Specbox;
  ]

let scheme_labels = List.map Defense.scheme_name schemes

let find_scheme label =
  let label = String.uppercase_ascii label in
  match List.find_opt (fun s -> Defense.scheme_name s = label) schemes with
  | Some s -> s
  | None ->
    invalid_arg
      (Printf.sprintf "unknown scheme label %S (valid: %s)" label
         (String.concat ", " scheme_labels))

(* ------------------------------------------------------------------ *)
(* Observation capture                                                 *)
(* ------------------------------------------------------------------ *)

type obs = {
  commit_digest : string;
  event_digest : string;
  cache_digest : string;
  leaked : int option;
  hot_slots : int;
  spec_loads : int;
  fences : int;
}

(* Run one attack once with a planted secret and capture the canonical
   observation trace: the commit stream (architectural control flow), the
   event ring (squash / fence / VP-release / dload), and a digest of the
   post-attack cache state taken *before* the attacker's reload sweep
   perturbs it.  Commit digests cover (fid, idx) pairs only — the victim
   legitimately loads its own secret, so committed *values* are not part of
   any observation an attacker can see.  Each component streams into its
   digest as it is produced: the commit tap folds ["fid.idx;"], and the
   event ring and the cache signatures are written from the machine in
   place, so the digests equal those of the rendered text without it ever
   being built. *)
let observe_run ~attack ~scheme ~seed ~secret =
  let commits = Checksum.create () in
  let on_commit fid idx _insn =
    Checksum.add_int commits fid;
    Checksum.add_char commits '.';
    Checksum.add_int commits idx;
    Checksum.add_char commits ';'
  in
  let captured = ref None in
  let observe lab =
    let pipe = Lab.pipeline lab in
    let ms = Lab.memsys lab in
    let caches = Checksum.create () in
    let out = Checksum.Digest caches in
    Cache.write_signature out (Memsys.l1d ms);
    Checksum.put_char out '|';
    Cache.write_signature out (Memsys.l2 ms);
    Checksum.put_char out '|';
    Cache.write_signature out (Memsys.l1i ms);
    let events = Checksum.create () in
    Pipeline.write_events (Checksum.Digest events) pipe;
    let c = Pipeline.counters pipe in
    captured :=
      Some
        ( Checksum.hex caches,
          Checksum.hex events,
          c.Pipeline.spec_loads,
          Pipeline.total_fences c )
  in
  let run =
    match attack with
    | A_v1 variant -> V1.run ~variant
    | A_v2 -> V2.run
    | A_rsb -> Rsb.run
  in
  let o = run ~seed ~secret ~trace:true ~on_commit ~observe ~scheme () in
  match !captured with
  | None -> failwith "Contracts.observe_run: attack never reached its observation point"
  | Some (cache_digest, event_digest, spec_loads, fences) ->
    {
      commit_digest = Checksum.hex commits;
      event_digest;
      cache_digest;
      leaked = o.Lab.leaked;
      hot_slots = o.Lab.hot_slot_count;
      spec_loads;
      fences;
    }

(* ------------------------------------------------------------------ *)
(* Contract lattice                                                    *)
(* ------------------------------------------------------------------ *)

type verdict = Arch_seq | Ct_seq | Ct_spec

let verdict_name = function
  | Arch_seq -> "ARCH-SEQ"
  | Ct_seq -> "CT-SEQ"
  | Ct_spec -> "CT-SPEC"

let leaks = function Ct_spec -> true | Arch_seq | Ct_seq -> false

type result = {
  attack : string;
  scheme : string;
  verdict : verdict;
  diffs : string list;  (** observation components that depended on the secret *)
  obs_lo : obs;
  obs_hi : obs;
}

let classify a b =
  let d name x y = if x <> y then [ name ] else [] in
  let diffs =
    d "commits" a.commit_digest b.commit_digest
    @ d "events" a.event_digest b.event_digest
    @ d "caches" a.cache_digest b.cache_digest
    @ d "readout" (a.leaked, a.hot_slots) (b.leaked, b.hot_slots)
    @ d "counters" (a.spec_loads, a.fences) (b.spec_loads, b.fences)
  in
  if diffs <> [] then (Ct_spec, diffs)
  else if a.spec_loads > 0 then (Ct_seq, [])
  else (Arch_seq, [])

let default_secrets = (0x2A, 0xAB)

let check ?(seed = 7) ?(secrets = default_secrets) ~attack:name ~scheme:label () =
  let attack, seed_off = find_attack name in
  let scheme = find_scheme label in
  let seed = seed + seed_off in
  let lo, hi = secrets in
  let obs_lo = observe_run ~attack ~scheme ~seed ~secret:lo in
  let obs_hi = observe_run ~attack ~scheme ~seed ~secret:hi in
  let verdict, diffs = classify obs_lo obs_hi in
  { attack = name; scheme = Defense.scheme_name scheme; verdict; diffs; obs_lo; obs_hi }

(* ------------------------------------------------------------------ *)
(* Supervised matrix                                                   *)
(* ------------------------------------------------------------------ *)

let key ~attack ~scheme = Printf.sprintf "contract/%s/%s" attack scheme

let cells ?(seed = 7) ?(secrets = default_secrets) ?(attacks = attack_names)
    ?(schemes = scheme_labels) () =
  (* Validate every label up front so a typo is one friendly error, not a
     matrix of failed cells. *)
  List.iter (fun a -> ignore (find_attack a)) attacks;
  let schemes = List.map (fun s -> Defense.scheme_name (find_scheme s)) schemes in
  let lo, hi = secrets in
  List.concat_map
    (fun attack ->
      List.map
        (fun scheme ->
          Supervise.cell
            ~cache:
              (Printf.sprintf "contracts/matrix|attack=%s|scheme=%s|seed=%d|secrets=%d,%d"
                 attack scheme seed lo hi)
            (key ~attack ~scheme)
            (fun ~fuel:_ -> check ~seed ~secrets ~attack ~scheme ()))
        schemes)
    attacks

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let matrix_table ?(attacks = attack_names) ?(schemes = scheme_labels) results =
  let tab =
    Tab.create ~title:"Empirical leakage contracts (two-secret observation diff)"
      ~header:(("Scheme", Tab.Left) :: List.map (fun a -> (a, Tab.Left)) attacks)
  in
  let lookup attack scheme =
    match List.assoc_opt (key ~attack ~scheme) results with
    | Some (Some r) ->
      verdict_name r.verdict
      ^ (if leaks r.verdict then Printf.sprintf " (%s)" (String.concat "," r.diffs)
         else "")
    | Some None -> "FAILED"
    | None -> "-"
  in
  List.iter
    (fun scheme -> Tab.row tab (scheme :: List.map (fun a -> lookup a scheme) attacks))
    schemes;
  Tab.caption tab
    "Each cell runs the attack twice with different planted secrets and diffs the \
     canonical observation trace (commit stream, event ring, cache-state digests, \
     covert-channel readout).  ARCH-SEQ: observations secret-independent and no \
     speculative load ever issued.  CT-SEQ: speculation occurred but observations \
     stay secret-independent (the scheme enforces the sequential leakage contract).  \
     CT-SPEC: observations depend on the secret - the scheme leaks under this \
     attack, via the listed components.";
  tab
