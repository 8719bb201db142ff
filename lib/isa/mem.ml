type t = (int, int) Hashtbl.t

let create () = Hashtbl.create 4096

let word key = key lsr 3

let load t key = match Hashtbl.find_opt t (word key) with Some v -> v | None -> 0

let store t key v = Hashtbl.replace t (word key) v

let clear t = Hashtbl.reset t
