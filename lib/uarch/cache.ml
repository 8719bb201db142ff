module Checksum = Pv_util.Checksum

(* Flat layout: way [w] of set [s] is slot [s * nways + w] of [tags] and
   [lru], and byte [s * nways + w] of [valid] ('\001' when the slot holds a
   line).  Building a cache is three allocations however many ways it has,
   and a lookup reads [nways] adjacent ints. *)
type t = {
  name : string;
  line_bytes : int;
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

let create ~name ~size_bytes ~line_bytes ~ways ~latency =
  if size_bytes <= 0 || line_bytes <= 0 || ways <= 0 then
    invalid_arg "Cache.create: non-positive parameter";
  let lines = size_bytes / line_bytes in
  if lines mod ways <> 0 || lines = 0 then
    invalid_arg "Cache.create: geometry does not divide";
  let t =
    {
      name;
      line_bytes;
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

(* Slot of [tag] among slots [i, stop), -1 when absent.  Top-level with the
   arrays as arguments, so the per-access scan allocates no closure; the
   annotation keeps the tag test an integer compare. *)
let rec scan (tags : int array) valid (tag : int) i stop =
  if i >= stop then -1
  else if Bytes.unsafe_get valid i <> '\000' && Array.unsafe_get tags i = tag then i
  else scan tags valid tag (i + 1) stop

let find_slot t base tag = scan t.tags t.valid tag base (base + t.nways)

(* The highest-index invalid way, else the first least-recently-used one. *)
let victim t base =
  let best = ref base in
  for i = base to base + t.nways - 1 do
    if not (is_valid t i) then best := i
    else if is_valid t !best && t.lru.(i) < t.lru.(!best) then best := i
  done;
  !best

(* Floor division.  A wrong-path load can compute a negative address from
   stale registers, and [/] rounds a negative quotient toward zero. *)
let fdiv a b = if a >= 0 then a / b else ((a + 1) / b) - 1

(* The first slot of the set holding [addr]'s line, and the line's tag
   within that set.  The line and the tag are floor quotients and the set
   index is the Euclidean remainder [line - tag * nsets], so every line,
   negative ones included, gets its own in-range (set, tag); on
   non-negative addresses this is the plain [/] and [mod] split.  Written
   as a continuation taking closed functions so the per-access path
   allocates no pair. *)
let[@inline] locate t addr k =
  let line = fdiv addr t.line_bytes in
  let tag = fdiv line t.nsets in
  k t ((line - (tag * t.nsets)) * t.nways) tag

let bump t i =
  t.tick <- t.tick + 1;
  Array.unsafe_set t.lru i t.tick

let fill t base tag =
  let i = victim t base in
  t.tags.(i) <- tag;
  Bytes.unsafe_set t.valid i '\001';
  bump t i

let access t addr =
  locate t addr (fun t base tag ->
      let i = find_slot t base tag in
      if i >= 0 then begin
        t.hits <- t.hits + 1;
        bump t i;
        true
      end
      else begin
        t.misses <- t.misses + 1;
        fill t base tag;
        false
      end)

let access_no_lru t addr =
  locate t addr (fun t base tag ->
      if find_slot t base tag >= 0 then begin
        t.hits <- t.hits + 1;
        true
      end
      else begin
        t.misses <- t.misses + 1;
        fill t base tag;
        false
      end)

let touch t addr =
  locate t addr (fun t base tag ->
      let i = find_slot t base tag in
      if i >= 0 then bump t i)

let probe t addr = locate t addr (fun t base tag -> find_slot t base tag >= 0)

let flush_line t addr =
  locate t addr (fun t base tag ->
      let i = find_slot t base tag in
      if i >= 0 then Bytes.unsafe_set t.valid i '\000')

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

