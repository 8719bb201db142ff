type way = { mutable tag : int; mutable valid : bool; mutable lru : int }

type t = {
  name : string;
  line_bytes : int;
  nsets : int;
  nways : int;
  latency : int;
  sets : way array array;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
}

let create ~name ~size_bytes ~line_bytes ~ways ~latency =
  if size_bytes <= 0 || line_bytes <= 0 || ways <= 0 then
    invalid_arg "Cache.create: non-positive parameter";
  let lines = size_bytes / line_bytes in
  if lines mod ways <> 0 || lines = 0 then
    invalid_arg "Cache.create: geometry does not divide";
  let nsets = lines / ways in
  {
    name;
    line_bytes;
    nsets;
    nways = ways;
    latency;
    sets =
      Array.init nsets (fun _ ->
          Array.init ways (fun _ -> { tag = 0; valid = false; lru = 0 }));
    tick = 0;
    hits = 0;
    misses = 0;
  }

let name t = t.name
let latency t = t.latency
let sets t = t.nsets
let ways t = t.nways

(* Way index of [tag] in [set], -1 when absent — index-based so the hit
   path (one lookup per simulated memory access) allocates nothing. *)
let find_idx set tag =
  let n = Array.length set in
  let rec go i =
    if i >= n then -1
    else
      let w = Array.unsafe_get set i in
      if w.valid && w.tag = tag then i else go (i + 1)
  in
  go 0

let victim set =
  let best = ref set.(0) in
  Array.iter
    (fun w ->
      if not w.valid then best := w
      else if !best.valid && w.lru < !best.lru then best := w)
    set;
  !best

(* Floor division.  A wrong-path load can compute a negative address from
   stale registers, and [/] rounds a negative quotient toward zero. *)
let fdiv a b = if a >= 0 then a / b else ((a + 1) / b) - 1

(* The set holding [addr]'s line, and the line's tag within that set.  The
   line and the tag are floor quotients and the set index is the Euclidean
   remainder [line - tag * nsets], so every line, negative ones included,
   gets its own in-range (set, tag); on non-negative addresses this is the
   plain [/] and [mod] split.  Written as a continuation taking closed
   functions so the per-access path allocates no pair. *)
let[@inline] locate t addr k =
  let line = fdiv addr t.line_bytes in
  let tag = fdiv line t.nsets in
  k t t.sets.(line - (tag * t.nsets)) tag

let bump t w =
  t.tick <- t.tick + 1;
  w.lru <- t.tick

let fill t set tag =
  let w = victim set in
  w.tag <- tag;
  w.valid <- true;
  bump t w

let access t addr =
  locate t addr (fun t set tag ->
      let i = find_idx set tag in
      if i >= 0 then begin
        t.hits <- t.hits + 1;
        bump t (Array.unsafe_get set i);
        true
      end
      else begin
        t.misses <- t.misses + 1;
        fill t set tag;
        false
      end)

let access_no_lru t addr =
  locate t addr (fun t set tag ->
      if find_idx set tag >= 0 then begin
        t.hits <- t.hits + 1;
        true
      end
      else begin
        t.misses <- t.misses + 1;
        fill t set tag;
        false
      end)

let touch t addr =
  locate t addr (fun t set tag ->
      let i = find_idx set tag in
      if i >= 0 then bump t (Array.unsafe_get set i))

let probe t addr = locate t addr (fun _ set tag -> find_idx set tag >= 0)

let flush_line t addr =
  locate t addr (fun _ set tag ->
      let i = find_idx set tag in
      if i >= 0 then (Array.unsafe_get set i).valid <- false)

let flush_all t =
  Array.iter (fun set -> Array.iter (fun w -> w.valid <- false) set) t.sets

let state_signature t =
  let buf = Buffer.create 256 in
  Array.iteri
    (fun si set ->
      Array.iteri
        (fun wi w ->
          if w.valid then begin
            (* Recency as ordinal rank within the set, not the raw tick, so
               two caches holding the same lines in the same order render
               identically regardless of access counts. *)
            let rank =
              Array.fold_left
                (fun acc o -> if o.valid && o.lru < w.lru then acc + 1 else acc)
                0 set
            in
            Buffer.add_string buf (Printf.sprintf "%d.%d:%d@%d;" si wi w.tag rank)
          end)
        set)
    t.sets;
  Buffer.contents buf

let hits t = t.hits
let misses t = t.misses

let hit_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 0.0 else float_of_int t.hits /. float_of_int total

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0
