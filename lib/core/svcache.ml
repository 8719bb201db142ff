type entry = {
  mutable valid : bool;
  mutable tag : int;
  mutable asid : int;
  mutable bit : bool;
  mutable lru : int;
}

type t = {
  name : string;
  nsets : int;
  sets : entry array array;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
}

let create ?(entries = 128) ?(ways = 4) ~name () =
  if entries mod ways <> 0 then invalid_arg "Svcache.create: entries/ways mismatch";
  let nsets = entries / ways in
  {
    name;
    nsets;
    sets =
      Array.init nsets (fun _ ->
          Array.init ways (fun _ ->
              { valid = false; tag = 0; asid = -1; bit = false; lru = 0 }));
    tick = 0;
    hits = 0;
    misses = 0;
  }

type lookup = Hit of bool | Miss

let set_of t key = t.sets.(key mod t.nsets)

let tag_of t key = key / t.nsets

(* What [find] returns for no match: never valid, never written. *)
let absent = { valid = false; tag = 0; asid = -1; bit = false; lru = 0 }

let rec find_from set tag asid i =
  if i = Array.length set then absent
  else
    let e = set.(i) in
    if e.valid && e.tag = tag && e.asid = asid then e else find_from set tag asid (i + 1)

(* The entry holding [key] for [asid], or [absent]: a lookup allocates
   nothing. *)
let find t ~asid key = find_from (set_of t key) (tag_of t key) asid 0

let hit_true = Hit true
let hit_false = Hit false

let lookup t ~asid key =
  let e = find t ~asid key in
  if e != absent then begin
    t.hits <- t.hits + 1;
    if e.bit then hit_true else hit_false
  end
  else begin
    t.misses <- t.misses + 1;
    Miss
  end

(* LRU state is frozen until the access reaches its Visibility Point: a
   speculative install fills the line (the walk result must be usable) but
   leaves the replacement order exactly as a non-speculative observer would
   see it — the filled line inherits the victim's LRU stamp, so until
   [touch] promotes it at the VP it stays the set's next victim and a
   squashed path has not perturbed which line gets evicted. *)
let install ?(speculative = false) t ~asid key bit =
  let set = set_of t key in
  let e = find t ~asid key in
  if e != absent then begin
    e.bit <- bit;
    if not speculative then begin
      t.tick <- t.tick + 1;
      e.lru <- t.tick
    end
  end
  else begin
    let victim = ref set.(0) in
    Array.iter
      (fun e ->
        if not e.valid then victim := e
        else if !victim.valid && e.lru < !victim.lru then victim := e)
      set;
    let e = !victim in
    e.valid <- true;
    e.tag <- tag_of t key;
    e.asid <- asid;
    e.bit <- bit;
    if not speculative then begin
      t.tick <- t.tick + 1;
      e.lru <- t.tick
    end
  end

let touch t ~asid key =
  let e = find t ~asid key in
  if e != absent then begin
    t.tick <- t.tick + 1;
    e.lru <- t.tick
  end

let invalidate t key =
  let set = set_of t key in
  let tag = tag_of t key in
  Array.iter (fun e -> if e.valid && e.tag = tag then e.valid <- false) set

let hits t = t.hits
let accesses t = t.hits + t.misses

let hit_rate t =
  let total = t.hits + t.misses in
  if total = 0 then None else Some (float_of_int t.hits /. float_of_int total)

let observe_metrics reg ~prefix t =
  let open Pv_util in
  Metrics.set_int reg (prefix ^ ".hits") t.hits;
  Metrics.set_int reg (prefix ^ ".misses") t.misses;
  Metrics.set_int reg (prefix ^ ".accesses") (accesses t);
  (* hit_rate is only meaningful once the cache has been probed; an absent
     key is the snapshot-level rendering of "no accesses". *)
  match hit_rate t with
  | Some r -> Metrics.set_float reg (prefix ^ ".hit_rate") r
  | None -> ()
