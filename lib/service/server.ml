type dispatch = Round_robin | Join_shortest_queue

let dispatch_of_string s =
  match String.lowercase_ascii s with
  | "rr" | "round-robin" -> Ok Round_robin
  | "jsq" | "join-shortest-queue" -> Ok Join_shortest_queue
  | _ -> Error (Printf.sprintf "unknown dispatch policy %S (expected rr or jsq)" s)

let dispatch_to_string = function
  | Round_robin -> "rr"
  | Join_shortest_queue -> "jsq"

type config = { cores : int; queue_bound : int; dispatch : dispatch }

let default_config = { cores = 4; queue_bound = 32; dispatch = Round_robin }

type result = {
  offered : int;
  served : int;
  shed : int;
  horizon : float;
  latency : Latency.t;
  per_core_served : int array;
  busy_cycles : float array;
}

(* Per-core state: a ring of the completion times of the requests queued or
   in service, oldest first.  Core c's ring is slots c*cap .. c*cap+cap-1 of
   one float array, with its oldest entry at [head.(c)] and [len.(c)]
   entries.  Admission keeps a ring below [queue_bound] entries, and no
   core receives more than [n] arrivals, so [cap = min queue_bound n]
   slots never overflow.

   [drain] drops core c's entries completed by [now], leaving its live
   backlog in [len.(c)].  It is inlined into [simulate], and typed, so
   [now] stays unboxed and the comparison is a float one. *)
let[@inline] drain (ring : float array) ~cap head len c (now : float) =
  while len.(c) > 0 && ring.((c * cap) + head.(c)) <= now do
    head.(c) <- (if head.(c) + 1 = cap then 0 else head.(c) + 1);
    len.(c) <- len.(c) - 1
  done

let simulate ?(config = default_config) ~arrivals ~service () =
  if config.cores <= 0 then invalid_arg "Server.simulate: cores must be positive";
  if config.queue_bound < 0 then
    invalid_arg "Server.simulate: queue_bound must be non-negative";
  let n = Array.length arrivals in
  for i = 0 to n - 1 do
    if Float.is_nan arrivals.(i) then invalid_arg "Server.simulate: arrivals must not be NaN";
    if i > 0 && arrivals.(i) < arrivals.(i - 1) then
      invalid_arg "Server.simulate: arrivals must be ascending"
  done;
  let cores = config.cores and bound = config.queue_bound in
  let cap = Int.min bound n in
  let ring = Array.create_float (cores * cap) in
  let head = Array.make cores 0 and len = Array.make cores 0 in
  let last_completion = Array.make cores 0.0 in
  let per_core_served = Array.make cores 0 in
  let busy_cycles = Array.make cores 0.0 in
  let sojourns = Array.create_float n in
  let served = ref 0 and shed = ref 0 and horizon = ref 0.0 in
  for i = 0 to n - 1 do
    let t = arrivals.(i) in
    let s = service i in
    if Float.is_nan s || s <= 0.0 then
      invalid_arg "Server.simulate: service times must be positive";
    let core =
      match config.dispatch with
      | Round_robin ->
        let c = i mod cores in
        drain ring ~cap head len c t;
        c
      | Join_shortest_queue ->
        let best = ref 0 and best_len = ref max_int in
        for c = 0 to cores - 1 do
          drain ring ~cap head len c t;
          if len.(c) < !best_len then begin
            best := c;
            best_len := len.(c)
          end
        done;
        !best
    in
    if len.(core) >= bound then incr shed
    else begin
      let start = Float.max t last_completion.(core) in
      let completion = start +. s in
      let tail = head.(core) + len.(core) in
      ring.((core * cap) + if tail >= cap then tail - cap else tail) <- completion;
      len.(core) <- len.(core) + 1;
      last_completion.(core) <- completion;
      per_core_served.(core) <- per_core_served.(core) + 1;
      busy_cycles.(core) <- busy_cycles.(core) +. s;
      sojourns.(!served) <- completion -. t;
      incr served;
      if completion > !horizon then horizon := completion
    end
  done;
  {
    offered = n;
    served = !served;
    shed = !shed;
    horizon = !horizon;
    latency = Latency.of_samples sojourns ~count:!served;
    per_core_served;
    busy_cycles;
  }

let goodput_rps r = if r.served = 0 then 0.0 else float_of_int r.served *. 2.0e9 /. r.horizon

let utilization r =
  if r.served = 0 then 0.0
  else
    Array.fold_left ( +. ) 0.0 r.busy_cycles
    /. (float_of_int (Array.length r.busy_cycles) *. r.horizon)
