type t = {
  slots : int array;
  mutable top : int;
  mutable count : int;
  mutable ever_pushed : bool;
}

let clear t =
  t.top <- 0;
  t.count <- 0;
  t.ever_pushed <- false;
  Array.fill t.slots 0 (Array.length t.slots) 0

let create ?(entries = 16) () =
  let t = { slots = Array.make entries 0; top = 0; count = 0; ever_pushed = false } in
  clear t;
  t

let push t va =
  let n = Array.length t.slots in
  t.top <- (t.top + 1) mod n;
  t.slots.(t.top) <- va;
  t.ever_pushed <- true;
  if t.count < n then t.count <- t.count + 1

(* On underflow, real return predictors speculate from whatever stale value
   sits in the slot — the ret2spec/Spectre-RSB lever — so we serve the stale
   entry rather than stalling (entries are not erased by pops). *)
let pop t =
  if t.count = 0 then
    (* Serve the most recently vacated slot. *)
    if t.ever_pushed then Some t.slots.((t.top + 1) mod Array.length t.slots)
    else None
  else begin
    let v = t.slots.(t.top) in
    let n = Array.length t.slots in
    t.top <- (t.top + n - 1) mod n;
    t.count <- t.count - 1;
    Some v
  end
