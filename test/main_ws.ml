(* Property tests for the sweep executor's determinism contract.

   Worker processes are free to finish cells in any order, but every
   observable artifact must be a pure function of the inputs: sweep
   results and failure reports, and the [--metrics] JSON document.  These
   properties drive random tiny/huge cell-cost mixes and random crash
   plans through [Supervise.run] at several worker counts and demand
   byte-identical output to the [-j 1] serial oracle.  A separate
   executable so a scheduler regression fails loudly on its own, not
   buried in the main runner. *)

module Fault = Pv_util.Fault
module Metrics = Pv_util.Metrics
module Supervise = Pv_experiments.Supervise

(* A deterministic cell body: cost is "LCG iterations", mixing tiny cells
   (scheduling-overhead bound) with occasional huge ones (skew bound). *)
let spin iters seed =
  let r = ref seed in
  for _ = 1 to iters do
    r := (!r * 2862933555777941757) + 3037000493
  done;
  !r

let shape_gen =
  QCheck.Gen.(
    let* n = int_range 10 60 in
    let* costs =
      list_size (return n)
        (frequency [ (9, int_range 1 50); (1, int_range 2_000 20_000) ])
    in
    let* jobs = oneofl [ 2; 4; 8 ] in
    return (costs, jobs))

let crash_gen =
  QCheck.Gen.(
    let* costs, jobs = shape_gen in
    let* crashed =
      List.map (fun _ -> ()) costs
      |> List.mapi (fun i () -> i)
      |> List.fold_left
           (fun acc i ->
             let* acc = acc in
             let* b = frequency [ (7, return false); (1, return true) ] in
             return (if b then i :: acc else acc))
           (return [])
    in
    return (costs, jobs, List.rev crashed))

let print_shape (costs, jobs) =
  Printf.sprintf "%d cells %s at -j %d" (List.length costs)
    (String.concat "," (List.map string_of_int costs))
    jobs

let print_crash (costs, jobs, crashed) =
  Printf.sprintf "%s crash@[%s]"
    (print_shape (costs, jobs))
    (String.concat ";" (List.map string_of_int crashed))

let sweep_cells costs =
  List.mapi
    (fun i c -> Supervise.cell (Printf.sprintf "cell/%04d" i) (fun ~fuel:_ -> spin c i))
    costs

let run_sweep ~jobs ~fault costs =
  Supervise.run
    ~config:{ Supervise.default with jobs; fault; retries = 1 }
    (sweep_cells costs)

let metrics_doc s =
  let metrics_of v =
    let reg = Metrics.create () in
    Metrics.set_int reg "cell.value" v;
    Metrics.snapshot reg
  in
  Test_procpool.metrics_json [ Supervise.export ~metrics_of ~label:"ws" s ]

let prop_sweep_deterministic =
  QCheck.Test.make ~count:40
    ~name:"supervised sweep: -j N table and metrics = -j 1 bytes"
    (QCheck.make ~print:print_shape shape_gen)
    (fun (costs, jobs) ->
      let serial = run_sweep ~jobs:1 ~fault:Fault.none costs in
      let par = run_sweep ~jobs ~fault:Fault.none costs in
      serial = par
      && String.equal (metrics_doc serial) (metrics_doc par))

let prop_sweep_crash_deterministic =
  QCheck.Test.make ~count:40
    ~name:"supervised sweep under Crash plan: failures identical to -j 1"
    (QCheck.make ~print:print_crash crash_gen)
    (fun (costs, jobs, crashed) ->
      let fault =
        if crashed = [] then Fault.none
        else
          Result.get_ok
            (Fault.parse (String.concat "," (List.map (Printf.sprintf "crash@%d") crashed)))
      in
      let serial = run_sweep ~jobs:1 ~fault costs in
      let par = run_sweep ~jobs ~fault costs in
      (* Crashed cells fail in declaration order, everything else succeeds,
         and the whole artifact matches the serial oracle byte for byte. *)
      List.length serial.Supervise.failures = List.length crashed
      && serial = par
      && String.equal (metrics_doc serial) (metrics_doc par))

let () =
  Alcotest.run "perspective-ws"
    [
      ( "ws.determinism",
        [
          QCheck_alcotest.to_alcotest prop_sweep_deterministic;
          QCheck_alcotest.to_alcotest prop_sweep_crash_deterministic;
        ] );
    ]
