include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* Folds the high bits down, so keys that differ only there (a user line
     key's address space, from bit 42 up) still spread. *)
  let hash x = (x lxor (x lsr 21) lxor (x lsr 42)) land max_int
end)
