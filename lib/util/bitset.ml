type t = { n : int; words : int array }

let bits_per_word = 62

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative length";
  { n; words = Array.make ((n + bits_per_word - 1) / bits_per_word) 0 }

let length t = t.n

let check t i = if i < 0 || i >= t.n then invalid_arg "Bitset: index out of range"

let set t i =
  check t i;
  t.words.(i / bits_per_word) <-
    t.words.(i / bits_per_word) lor (1 lsl (i mod bits_per_word))

let clear t i =
  check t i;
  t.words.(i / bits_per_word) <-
    t.words.(i / bits_per_word) land lnot (1 lsl (i mod bits_per_word))

let mem t i =
  check t i;
  t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let popcount w =
  let rec go w acc = if w = 0 then acc else go (w lsr 1) (acc + (w land 1)) in
  go w 0

let count t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let copy t = { n = t.n; words = Array.copy t.words }

let iter t f =
  for i = 0 to t.n - 1 do
    if t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0 then f i
  done

let elements t =
  let acc = ref [] in
  iter t (fun i -> acc := i :: !acc);
  List.rev !acc

let of_list n l =
  let t = create n in
  List.iter (set t) l;
  t
