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

(* One planned fault: job [index] suffers [kind] while its attempt number
   is [< first_attempts] ([always]: every attempt; [1]: a flaky fault that
   succeeds on retry). *)
type spec = { index : int; kind : kind; first_attempts : int }

type t = spec list

let none = []
let is_none t = t = []
let always = max_int

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
           fresh worker, where the next attempt number no longer matches —
           a persistent kill would only burn the retry budget. *)
        | "kill" -> Some (Kill, 1)
        | _ -> None
      in
      match (kind, parse_index index) with
      | Some (kind, first_attempts), Some index -> Some { index; kind; first_attempts }
      | _ -> None)
    | _ -> None
  in
  let items = List.map item (String.split_on_char ',' (String.trim s)) in
  if List.for_all Option.is_some items then Ok (List.map Option.get items)
  else
    Error
      (Printf.sprintf
         "bad fault spec %S (expected KIND@INDEX[,KIND@INDEX...] with KIND one of \
          crash, flaky, slow, poison, livelock, kill and INDEX a non-negative decimal)"
         s)

let decide t ~index ~attempt =
  List.find_map
    (fun s -> if s.index = index && attempt < s.first_attempts then Some s.kind else None)
    t

let spin () =
  for _ = 1 to 200_000 do
    Domain.cpu_relax ()
  done
