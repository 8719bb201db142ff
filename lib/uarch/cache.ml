module Checksum = Pv_util.Checksum

(* Flat layout: way [w] of set [s] is slot [s * nways + w] of [tags] and
   [lru], and byte [s * nways + w] of [valid] ('\001' when the slot holds a
   line).  Building a cache is three allocations however many ways it has,
   and a lookup reads [nways] adjacent ints. *)
type t = {
  name : string;
  line_shift : int; (* log2 line bytes *)
  set_shift : int; (* log2 sets *)
  nsets : int;
  nways : int;
  latency : int;
  tags : int array;
  lru : int array;
  valid : Bytes.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
}

let flush_all t = Bytes.fill t.valid 0 (Bytes.length t.valid) '\000'

(* Create-time state: no line valid, no access counted.  Tags and LRU
   stamps are left as they are: nothing reads a slot's tag or stamp while
   its valid byte is clear, and a fill writes both before setting it. *)
let reset t =
  flush_all t;
  t.tick <- 0;
  t.hits <- 0;
  t.misses <- 0

(* log2 of a power of two [n], naming [what] otherwise. *)
let log2_exact what n =
  if n land (n - 1) <> 0 then
    invalid_arg (Printf.sprintf "Cache.create: %s %d is not a power of two" what n);
  let rec go k = if 1 lsl k = n then k else go (k + 1) in
  go 0

let create ~name ~size_bytes ~line_bytes ~ways ~latency =
  if size_bytes <= 0 || line_bytes <= 0 || ways <= 0 then
    invalid_arg "Cache.create: non-positive parameter";
  let lines = size_bytes / line_bytes in
  if lines mod ways <> 0 || lines = 0 then
    invalid_arg "Cache.create: geometry does not divide";
  let line_shift = log2_exact "line_bytes" line_bytes in
  let set_shift = log2_exact "set count" (lines / ways) in
  let t =
    {
      name;
      line_shift;
      set_shift;
      nsets = lines / ways;
      nways = ways;
      latency;
      tags = Array.make lines 0;
      lru = Array.make lines 0;
      valid = Bytes.create lines;
      tick = 0;
      hits = 0;
      misses = 0;
    }
  in
  reset t;
  t

let latency t = t.latency

let[@inline] is_valid t i = Bytes.unsafe_get t.valid i <> '\000'

(* Where [addr]'s line lives: the line is [addr asr line_shift], its tag
   [line asr set_shift] and its set [line land (nsets - 1)].  With both
   sizes powers of two these are the floor quotients and the Euclidean
   remainder, so every line, negative ones included (a wrong-path load can
   compute one from stale registers), gets its own in-range (set, tag). *)
let[@inline] line_of t addr = addr asr t.line_shift
let[@inline] set_base t addr = (line_of t addr land (t.nsets - 1)) * t.nways
let[@inline] tag_of t addr = line_of t addr asr t.set_shift

(* Slot of [tag] among slots [i, stop), -1 when absent.  Top-level with the
   arrays as arguments, so the per-access scan allocates no closure; the
   annotation keeps the tag test an integer compare. *)
let rec scan (tags : int array) valid (tag : int) i stop =
  if i >= stop then -1
  else if Array.unsafe_get tags i = tag && Bytes.unsafe_get valid i <> '\000' then i
  else scan tags valid tag (i + 1) stop

(* Slot of [addr]'s line, -1 when absent. *)
let[@inline] find_slot t addr =
  let base = set_base t addr in
  scan t.tags t.valid (tag_of t addr) base (base + t.nways)

(* The highest-index invalid way, else the first least-recently-used one. *)
let victim t base =
  let best = ref base in
  for i = base to base + t.nways - 1 do
    if not (is_valid t i) then best := i
    else if is_valid t !best && t.lru.(i) < t.lru.(!best) then best := i
  done;
  !best

let[@inline] bump t i =
  t.tick <- t.tick + 1;
  Array.unsafe_set t.lru i t.tick

let fill t addr =
  let i = victim t (set_base t addr) in
  t.tags.(i) <- tag_of t addr;
  Bytes.unsafe_set t.valid i '\001';
  bump t i

let access t addr =
  let i = find_slot t addr in
  if i >= 0 then begin
    t.hits <- t.hits + 1;
    bump t i;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    fill t addr;
    false
  end

let access_no_lru t addr =
  if find_slot t addr >= 0 then begin
    t.hits <- t.hits + 1;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    fill t addr;
    false
  end

let read_lat l1 l2 ~dram addr =
  if access l1 addr then l1.latency
  else if access l2 addr then l1.latency + l2.latency
  else l1.latency + l2.latency + dram

let touch t addr =
  let i = find_slot t addr in
  if i >= 0 then bump t i

let probe t addr = find_slot t addr >= 0

let flush_line t addr =
  let i = find_slot t addr in
  if i >= 0 then Bytes.unsafe_set t.valid i '\000'

let write_signature out t =
  for si = 0 to t.nsets - 1 do
    let base = si * t.nways in
    for wi = 0 to t.nways - 1 do
      let i = base + wi in
      if is_valid t i then begin
        (* Recency as ordinal rank within the set, not the raw tick, so two
           caches holding the same lines in the same order render
           identically regardless of access counts. *)
        let rank = ref 0 in
        for o = base to base + t.nways - 1 do
          if is_valid t o && t.lru.(o) < t.lru.(i) then incr rank
        done;
        Checksum.put_int out si;
        Checksum.put_char out '.';
        Checksum.put_int out wi;
        Checksum.put_char out ':';
        Checksum.put_int out t.tags.(i);
        Checksum.put_char out '@';
        Checksum.put_int out !rank;
        Checksum.put_char out ';'
      end
    done
  done

let hits t = t.hits
let misses t = t.misses
