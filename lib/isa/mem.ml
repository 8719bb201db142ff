(* Keyed by word index in an int table: the generic [Hashtbl]'s
   polymorphic hash and compare cost a C call each per access, and every
   simulated load and committed store makes one. *)
module Inttbl = Pv_util.Inttbl

type t = int Inttbl.t

let create () = Inttbl.create 4096

let word key = key lsr 3

let load t key = match Inttbl.find_opt t (word key) with Some v -> v | None -> 0

let store t key v = Inttbl.replace t (word key) v

let clear t = Inttbl.reset t
