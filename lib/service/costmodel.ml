module Machine = Pv_sim.Machine
module Pipeline = Pv_uarch.Pipeline
module Apps = Pv_workloads.Apps
module Driver = Pv_workloads.Driver
module Rng = Pv_util.Rng
module Metrics = Pv_util.Metrics

type t = {
  app : string;
  scheme : string;
  samples : float array;
  mean_cycles : float;
}

(* One cycle-level run of [requests] requests, built like every perf cell
   (Machine.run_job), minus the per-run telemetry we do not need here. *)
let total_cycles ?fuel ~seed ~block_unknown ~scheme ~label (app : Apps.app) ~requests =
  let _m, _h, result, _delta =
    Machine.run_job ?fuel ~block_unknown ~seed ~syscalls:Apps.all_syscalls
      ~name:app.Apps.name
      ~user_funcs:
        (Driver.build ~iterations:requests ~sequence:app.Apps.request
           ~user_work:app.Apps.user_work)
      ~profile:app.Apps.request scheme
  in
  Machine.check_result ~name:(Printf.sprintf "%s/%s" app.Apps.name label) result;
  result.Pipeline.cycles

let calibrate ?(seed = 42) ?(points = 4) ?(warm = 4) ?(chunk = 8) ?(block_unknown = true)
    ?fuel ~scheme ~label (app : Apps.app) =
  if points <= 0 then invalid_arg "Costmodel.calibrate: points must be positive";
  if warm <= 0 then invalid_arg "Costmodel.calibrate: warm must be positive";
  if chunk <= 0 then invalid_arg "Costmodel.calibrate: chunk must be positive";
  (* Per-point machine seeds from a SplitMix64 stream keyed off the base
     seed: every point measures a differently laid-out machine, so the
     marginal costs form a real distribution rather than one repeated
     value. *)
  let stream = Rng.create (seed lxor 0x73766373 (* "svcs" *)) in
  let samples =
    Array.init points (fun _ ->
        let point_seed = Rng.bits stream in
        let short =
          total_cycles ?fuel ~seed:point_seed ~block_unknown ~scheme ~label app
            ~requests:warm
        in
        let long =
          total_cycles ?fuel ~seed:point_seed ~block_unknown ~scheme ~label app
            ~requests:(warm + chunk)
        in
        (* A defense cannot make the longer run cheaper; clamp at one cycle
           anyway so a degenerate model can never divide by zero. *)
        Float.max 1.0 (float_of_int (long - short) /. float_of_int chunk))
  in
  Array.sort compare samples;
  let mean_cycles =
    Array.fold_left ( +. ) 0.0 samples /. float_of_int (Array.length samples)
  in
  { app = app.Apps.name; scheme = label; samples; mean_cycles }

let sample t rng = t.samples.(Rng.int rng (Array.length t.samples))

let capacity_rps t ~cores =
  if cores <= 0 then invalid_arg "Costmodel.capacity_rps: cores must be positive";
  float_of_int cores *. 2.0e9 /. t.mean_cycles

let snapshot t =
  let reg = Metrics.create () in
  Metrics.set_int reg "costmodel.samples" (Array.length t.samples);
  Metrics.set_float reg "costmodel.mean_cycles" t.mean_cycles;
  Metrics.set_float reg "costmodel.min_cycles" t.samples.(0);
  Metrics.set_float reg "costmodel.max_cycles" t.samples.(Array.length t.samples - 1);
  let h = Metrics.hist reg "costmodel.service_cycles" in
  Array.iter
    (fun s -> Metrics.hist_observe h (int_of_float (Float.round s)))
    t.samples;
  Metrics.snapshot reg
