(* Deterministic fault injection: a pure decision function from
   (plan, job index, attempt) to an optional misbehaviour.  Decisions never
   depend on execution order, domain ids or time, so an injected fault
   pattern is reproducible for every worker count. *)

type kind = Crash | Slow | Poison | Livelock | Kill

exception Crashed of { index : int; attempt : int }
exception Poisoned of { index : int; attempt : int }
exception Killed of { index : int; attempt : int }

let () =
  Printexc.register_printer (function
    | Crashed { index; attempt } ->
      Some (Printf.sprintf "injected crash (job %d, attempt %d)" index attempt)
    | Poisoned { index; attempt } ->
      Some (Printf.sprintf "injected poisoned result (job %d, attempt %d)" index attempt)
    | Killed { index; attempt } ->
      Some (Printf.sprintf "injected worker kill (job %d, attempt %d)" index attempt)
    | _ -> None)

type spec = { index : int; kind : kind; first_attempts : int }

type t =
  | None_
  | Plan of spec list
  | Seeded of {
      seed : int;
      crash : float;
      slow : float;
      poison : float;
      livelock : float;
      transient_attempts : int;
    }

let none = None_
let is_none = function None_ -> true | Plan _ | Seeded _ -> false
let always = max_int
let plan specs = if specs = [] then None_ else Plan specs

(* Strict decimal: [int_of_string] would also accept "-1", "0x1", "0b1",
   "1_000" and "+1", each silently planting the fault somewhere the user
   did not ask for (or nowhere). *)
let parse_index s =
  if s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s then
    int_of_string_opt s
  else None

let parse s =
  let item it =
    match String.split_on_char '@' it with
    | [ kind; index ] -> (
      let kind =
        match kind with
        | "crash" -> Some (Crash, always)
        | "flaky" -> Some (Crash, 1)
        | "slow" -> Some (Slow, always)
        | "poison" -> Some (Poison, always)
        | "livelock" -> Some (Livelock, always)
        (* kill is flaky by construction: the lost attempt re-queues on a
           respawned worker, where the next attempt number no longer
           matches — a persistent kill would only burn the respawn
           budget. *)
        | "kill" -> Some (Kill, 1)
        | _ -> None
      in
      match (kind, parse_index index) with
      | Some (kind, first_attempts), Some index -> Some { index; kind; first_attempts }
      | _ -> None)
    | _ -> None
  in
  let items = List.map item (String.split_on_char ',' (String.trim s)) in
  if List.for_all Option.is_some items then Ok (plan (List.map Option.get items))
  else
    Error
      (Printf.sprintf
         "bad fault spec %S (expected KIND@INDEX[,KIND@INDEX...] with KIND one of \
          crash, flaky, slow, poison, livelock, kill and INDEX a non-negative decimal)"
         s)

let seeded ~seed ?(crash = 0.0) ?(slow = 0.0) ?(poison = 0.0) ?(livelock = 0.0)
    ?(transient_attempts = 1) () =
  Seeded { seed; crash; slow; poison; livelock; transient_attempts }

let decide t ~index ~attempt =
  match t with
  | None_ -> None
  | Plan specs ->
    List.find_map
      (fun s -> if s.index = index && attempt < s.first_attempts then Some s.kind else None)
      specs
  | Seeded { seed; crash; slow; poison; livelock; transient_attempts } ->
    (* One SplitMix64 stream per job index; draws consumed in a fixed order
       so adding a probability never reshuffles the others' decisions. *)
    let rng = Rng.create (seed lxor (index * 0x9E3779B9) lxor 0x5DEECE66D) in
    let p_live = Rng.chance rng livelock in
    let p_crash = Rng.chance rng crash in
    let p_slow = Rng.chance rng slow in
    let p_poison = Rng.chance rng poison in
    if p_live then Some Livelock
    else if p_crash && attempt < transient_attempts then Some Crash
    else if p_slow then Some Slow
    else if p_poison then Some Poison
    else None

let spin () =
  for _ = 1 to 200_000 do
    Domain.cpu_relax ()
  done
