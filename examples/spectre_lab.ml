(* Spectre lab: watch the paper's taxonomy play out on the simulator.

     dune exec examples/spectre_lab.exe

   Runs the three attack proof-of-concepts (active Spectre v1, passive
   Spectre v2 with type confusion, passive Spectre-RSB) under a progression
   of defenses, printing what the attacker's flush+reload decoder actually
   recovered from the simulated caches.  The punchline is the middle column:
   DSVs alone (PERSPECTIVE-ALL) stop the active attack cold but are powerless
   against the passive one - precisely the observation that motivates ISVs
   (paper SS4.1, SS5.1). *)

module Defense = Perspective.Defense
module Isv = Perspective.Isv

let schemes =
  [
    Defense.Unsafe;
    Defense.Perspective Isv.All (* DSVs only: ISV admits every function *);
    Defense.Perspective Isv.Dynamic;
  ]

let cell secret leaked =
  match leaked with
  | Some v when v = secret -> Printf.sprintf "LEAKED %3d" v
  | Some v -> Printf.sprintf "noise %3d" v
  | None -> "blocked"

let () =
  Printf.printf "%-28s %-16s %-16s %-16s\n" "attack" "UNSAFE" "DSVs only" "DSVs + ISVs";
  Printf.printf "%s\n" (String.make 80 '-');
  let row name f =
    let cells =
      List.map
        (fun s ->
          let secret, leaked = f s in
          cell secret leaked)
        schemes
    in
    (match cells with
    | [ a; b; c ] -> Printf.printf "%-28s %-16s %-16s %-16s\n" name a b c
    | _ -> assert false)
  in
  row "Spectre v1 (active)" (fun scheme ->
      let o = Pv_attacks.Spectre_v1.run ~scheme () in
      (o.Pv_attacks.Lab.secret, o.Pv_attacks.Lab.leaked));
  row "Spectre v2 (passive)" (fun scheme ->
      let o = Pv_attacks.Spectre_v2.run ~scheme () in
      (o.Pv_attacks.Lab.secret, o.Pv_attacks.Lab.leaked));
  row "Spectre-RSB (passive)" (fun scheme ->
      let o = Pv_attacks.Spectre_rsb.run ~scheme () in
      (o.Pv_attacks.Lab.secret, o.Pv_attacks.Lab.leaked));
  Printf.printf "%s\n" (String.make 80 '-');
  Printf.printf
    "Every verdict above is read back from simulated microarchitectural state:\n\
     the attacker evicts the covert-channel lines, triggers the victim, and\n\
     times reloads.  Note the middle column: data ownership (DSVs) eliminates\n\
     the active attack but cannot stop a passive attack, because there the\n\
     victim's own kernel thread touches only data it legitimately owns.\n\
     Instruction views (ISVs) close that gap.\n"
