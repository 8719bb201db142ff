type config = {
  l1i_bytes : int;
  l1i_ways : int;
  l1i_latency : int;
  l1d_bytes : int;
  l1d_ways : int;
  l1d_latency : int;
  l2_bytes : int;
  l2_ways : int;
  l2_latency : int;
  line_bytes : int;
  dram_latency : int;
}

let default_config =
  {
    l1i_bytes = 32 * 1024;
    l1i_ways = 4;
    l1i_latency = 2;
    l1d_bytes = 32 * 1024;
    l1d_ways = 8;
    l1d_latency = 2;
    l2_bytes = 2 * 1024 * 1024;
    l2_ways = 16;
    l2_latency = 8;
    line_bytes = 64;
    dram_latency = 100;
  }

type t = {
  mem : Pv_isa.Mem.t;
  l1i : Cache.t;
  l1d : Cache.t;
  l2 : Cache.t;
  dram_latency : int;
}

let create mem =
  let c = default_config in
  {
    mem;
    l1i =
      Cache.create ~name:"L1I" ~size_bytes:c.l1i_bytes ~line_bytes:c.line_bytes
        ~ways:c.l1i_ways ~latency:c.l1i_latency;
    l1d =
      Cache.create ~name:"L1D" ~size_bytes:c.l1d_bytes ~line_bytes:c.line_bytes
        ~ways:c.l1d_ways ~latency:c.l1d_latency;
    l2 =
      Cache.create ~name:"L2" ~size_bytes:c.l2_bytes ~line_bytes:c.line_bytes
        ~ways:c.l2_ways ~latency:c.l2_latency;
    dram_latency = c.dram_latency;
  }

let reset t =
  Pv_isa.Mem.clear t.mem;
  Cache.reset t.l1i;
  Cache.reset t.l1d;
  Cache.reset t.l2

let mem t = t.mem
let l1i t = t.l1i
let l1d t = t.l1d
let l2 t = t.l2
let dram_latency t = t.dram_latency

(* Latency-only walk, one call into [Cache]: the pipeline's per-cycle paths
   use this so a cache access never allocates a result tuple. *)
let data_read_lat t key = Cache.read_lat t.l1d t.l2 ~dram:t.dram_latency key

let data_read t key =
  let l1_hit = Cache.probe t.l1d key in
  (data_read_lat t key, l1_hit)

let data_write t key = ignore (data_read_lat t key)

let inst_read t key = Cache.read_lat t.l1i t.l2 ~dram:t.dram_latency key

let would_hit_l1d t key = Cache.probe t.l1d key

let reload_latency t key = data_read_lat t key

let flush_line t key =
  Cache.flush_line t.l1i key;
  Cache.flush_line t.l1d key;
  Cache.flush_line t.l2 key
