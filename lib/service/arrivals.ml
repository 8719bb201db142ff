module Rng = Pv_util.Rng

let times ~seed ~mean ~n =
  if Float.is_nan mean || mean <= 0.0 then
    invalid_arg "Arrivals.times: mean inter-arrival must be positive";
  let rng = Rng.create seed in
  let a = Array.create_float n in
  let clock = ref 0.0 in
  for i = 0 to n - 1 do
    clock := !clock +. Rng.sample_exp rng mean;
    a.(i) <- !clock
  done;
  a
