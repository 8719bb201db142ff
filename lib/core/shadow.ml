open Pv_uarch
module Inttbl = Pv_util.Inttbl

type mode = Shared | Labeled

type t = {
  mode : mode;
  ms : Memsys.t;
  tbl : int Inttbl.t; (* physical line -> label *)
  mutable fills : int;
  mutable discards : int;
  mutable promotions : int;
}

let create ~mode ms = { mode; ms; tbl = Inttbl.create 64; fills = 0; discards = 0; promotions = 0 }

let label_of t ~asid = match t.mode with Shared -> 0 | Labeled -> asid

let line_of key = key / Pv_isa.Layout.line_bytes

(* Latency a demand access would see right now, without mutating any level:
   mirrors Cache.read_lat's walk (L1 hit; L1+L2; L1+L2+DRAM). *)
let probe_latency t key =
  let l1 = Memsys.l1d t.ms and l2 = Memsys.l2 t.ms in
  if Cache.probe l1 key then Cache.latency l1
  else if Cache.probe l2 key then Cache.latency l1 + Cache.latency l2
  else Cache.latency l1 + Cache.latency l2 + Memsys.dram_latency t.ms

let spec_read t ~key ~asid =
  let line = line_of key in
  let lbl = label_of t ~asid in
  match Inttbl.find_opt t.tbl line with
  | Some l when l = lbl ->
    (* Shadow hit: serviced at L1 speed, still invisible architecturally. *)
    Cache.latency (Memsys.l1d t.ms)
  | _ ->
    let lat = probe_latency t key in
    Inttbl.replace t.tbl line lbl;
    t.fills <- t.fills + 1;
    lat

let promote t ~key ~asid =
  let line = line_of key in
  let lbl = label_of t ~asid in
  match Inttbl.find_opt t.tbl line with
  | Some l when l = lbl ->
    Inttbl.remove t.tbl line;
    t.promotions <- t.promotions + 1;
    ignore (Memsys.data_read t.ms key)
  | Some _ | None -> ()

let squash t ~asid =
  match t.mode with
  | Shared ->
    t.discards <- t.discards + Inttbl.length t.tbl;
    Inttbl.reset t.tbl
  | Labeled ->
    let lbl = asid in
    let doomed =
      Inttbl.fold (fun line l acc -> if l = lbl then line :: acc else acc) t.tbl []
    in
    List.iter
      (fun line ->
        Inttbl.remove t.tbl line;
        t.discards <- t.discards + 1)
      doomed

let size t = Inttbl.length t.tbl
let fills t = t.fills
let discards t = t.discards
let promotions t = t.promotions
