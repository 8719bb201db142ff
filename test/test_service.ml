(* The request-serving subsystem: arrival determinism and common random
   numbers, the bounded-queue server model, calibrated cost models, and the
   Loadsweep experiment's determinism / fault / resume contracts. *)

module Arrivals = Pv_service.Arrivals
module Latency = Pv_service.Latency
module Server = Pv_service.Server
module Costmodel = Pv_service.Costmodel
module Loadsweep = Pv_experiments.Loadsweep
module Supervise = Pv_experiments.Supervise
module Schemes = Pv_experiments.Schemes
module Apps = Pv_workloads.Apps
module Fault = Pv_util.Fault
module Stats = Pv_util.Stats
module Tab = Pv_util.Tab

let check = Alcotest.check

let with_journal f =
  let path = Filename.temp_file "pv_service" ".journal" in
  Sys.remove path;
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

(* --- arrivals --------------------------------------------------------- *)

let test_arrivals_deterministic () =
  let a = Arrivals.times ~seed:7 ~mean:1000.0 ~n:200 in
  let b = Arrivals.times ~seed:7 ~mean:1000.0 ~n:200 in
  Alcotest.(check bool) "same seed, same times" true (a = b);
  let c = Arrivals.times ~seed:8 ~mean:1000.0 ~n:200 in
  Alcotest.(check bool) "different seed differs" true (a <> c);
  Array.iteri
    (fun i t ->
      if i > 0 then
        Alcotest.(check bool) "strictly increasing" true (t > a.(i - 1)))
    a

let test_arrivals_crn_scaling () =
  (* Common random numbers: sample_exp scales a fixed uniform by the mean,
     so halving the mean compresses the same arrival pattern by 2. *)
  let slow = Arrivals.times ~seed:11 ~mean:2000.0 ~n:500 in
  let fast = Arrivals.times ~seed:11 ~mean:1000.0 ~n:500 in
  Array.iteri
    (fun i t ->
      let err = abs_float (t -. (2.0 *. fast.(i))) in
      Alcotest.(check bool) "slow = 2 x fast" true (err <= 1e-9 *. t))
    slow

let test_arrivals_rejects_bad_mean () =
  Alcotest.check_raises "zero mean" (Invalid_argument "Arrivals.create: mean inter-arrival must be positive")
    (fun () -> ignore (Arrivals.create ~seed:1 ~mean:0.0));
  Alcotest.check_raises "negative mean"
    (Invalid_argument "Arrivals.create: mean inter-arrival must be positive") (fun () ->
      ignore (Arrivals.create ~seed:1 ~mean:(-5.0)))

(* --- latency recorder ------------------------------------------------- *)

let test_latency_matches_stats () =
  let t = Latency.create () in
  let xs = [ 50.0; 15.0; 35.0; 40.0; 20.0 ] in
  List.iter (Latency.observe t) xs;
  check Alcotest.int "count" 5 (Latency.count t);
  check (Alcotest.float 1e-9) "mean" (Stats.mean xs) (Latency.mean t);
  check (Alcotest.float 1e-9) "max" 50.0 (Latency.max_value t);
  List.iter
    (fun p ->
      check (Alcotest.float 1e-9)
        (Printf.sprintf "p%.1f matches Stats.percentile" p)
        (Stats.percentile xs ~p) (Latency.percentile t ~p))
    [ 0.0; 50.0; 95.0; 99.0; 100.0 ];
  (* observing after a percentile query must pick up the new sample *)
  Latency.observe t 1000.0;
  check (Alcotest.float 1e-9) "p100 after new observation" 1000.0
    (Latency.percentile t ~p:100.0)

(* Selection on the memoized working copy must agree with the sorting
   reference on duplicate-heavy samples, and a later observe must
   invalidate the copy: queries in random order are interleaved with new
   samples, and each is checked against the multiset observed so far. *)
type latency_op = Query of float | Observe of float

let latency_ops_gen =
  let open QCheck.Gen in
  (* few distinct values, so most ranks land inside runs of duplicates *)
  let value = map float_of_int (frequency [ (4, int_bound 8); (1, int_bound 100_000) ]) in
  let p =
    frequency
      [
        (6, oneofl [ 0.0; 50.0; 95.0; 99.0; 99.9; 100.0 ]);
        (2, float_range 0.0 100.0);
      ]
  in
  let op = frequency [ (3, map (fun p -> Query p) p); (1, map (fun x -> Observe x) value) ] in
  pair (list_size (int_range 1 400) value) (list_size (int_range 1 40) op)

let print_latency_op = function
  | Query p -> Printf.sprintf "Query %g" p
  | Observe x -> Printf.sprintf "Observe %g" x

let latency_selection_prop =
  QCheck.Test.make ~name:"percentile and max match Stats on duplicate-heavy samples" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(pair (list float) (list print_latency_op))
       latency_ops_gen)
    (fun (xs, ops) ->
      let t = Latency.create () in
      List.iter (Latency.observe t) xs;
      let model = ref xs in
      List.for_all
        (function
          | Observe x ->
            Latency.observe t x;
            model := x :: !model;
            true
          | Query p ->
            Latency.percentile t ~p = Stats.percentile !model ~p
            && Latency.max_value t = List.fold_left Float.max Float.neg_infinity !model)
        ops)

let test_latency_rejects_bad_sojourns () =
  (* Regression: a NaN sample has no place in a total order, so selection
     could return any element for a rank. *)
  let t = Latency.create () in
  let reject name x =
    Alcotest.check_raises name
      (Invalid_argument "Latency.observe: sojourn must be non-negative") (fun () ->
        Latency.observe t x)
  in
  reject "nan" Float.nan;
  reject "negative" (-1.0);
  check Alcotest.int "nothing recorded" 0 (Latency.count t)

(* --- server ----------------------------------------------------------- *)

let test_server_fifo_and_shed () =
  (* One core, bound 2: arrival 0 is in service (completes at 10), arrival 1
     queues behind it (completes at 20), arrival 2 finds the queue full and
     is shed. *)
  let r =
    Server.simulate
      ~config:{ Server.cores = 1; queue_bound = 2; dispatch = Server.Round_robin }
      ~arrivals:[| 0.0; 1.0; 2.0 |]
      ~service:(fun _ -> 10.0)
      ()
  in
  check Alcotest.int "offered" 3 r.Server.offered;
  check Alcotest.int "served" 2 r.Server.served;
  check Alcotest.int "shed" 1 r.Server.shed;
  check (Alcotest.float 1e-9) "horizon" 20.0 r.Server.horizon;
  check (Alcotest.float 1e-9) "first sojourn" 10.0 (Latency.percentile r.Server.latency ~p:0.0);
  check (Alcotest.float 1e-9) "queued sojourn" 19.0 (Latency.percentile r.Server.latency ~p:100.0);
  check (Alcotest.float 1e-9) "shed fraction" (1.0 /. 3.0) (Server.shed_fraction r)

let test_server_jsq_balances () =
  (* Four simultaneous arrivals on two cores: JSQ alternates cores (ties to
     the lowest index), so both serve two. *)
  let r =
    Server.simulate
      ~config:{ Server.cores = 2; queue_bound = 8; dispatch = Server.Join_shortest_queue }
      ~arrivals:[| 0.0; 0.0; 0.0; 0.0 |]
      ~service:(fun _ -> 10.0)
      ()
  in
  check Alcotest.int "served" 4 r.Server.served;
  check Alcotest.(array int) "balanced" [| 2; 2 |] r.Server.per_core_served

let test_server_validates_inputs () =
  let service _ = 1.0 in
  Alcotest.check_raises "unsorted arrivals"
    (Invalid_argument "Server.simulate: arrivals must be ascending") (fun () ->
      ignore (Server.simulate ~arrivals:[| 1.0; 0.0 |] ~service ()));
  Alcotest.check_raises "bad service time"
    (Invalid_argument "Server.simulate: service times must be positive") (fun () ->
      ignore (Server.simulate ~arrivals:[| 0.0 |] ~service:(fun _ -> 0.0) ()));
  Alcotest.check_raises "bad cores"
    (Invalid_argument "Server.simulate: cores must be positive") (fun () ->
      ignore
        (Server.simulate
           ~config:{ Server.default_config with Server.cores = 0 }
           ~arrivals:[| 0.0 |] ~service ()))

let test_server_queue_bound_zero_sheds_everything () =
  (* Queue bound 0 is the degenerate-but-legal overload limit: every arrival
     is shed, nothing is served, and the empty latency recorder must surface
     as None percentiles rather than a crash. *)
  let r =
    Server.simulate
      ~config:{ Server.cores = 1; queue_bound = 0; dispatch = Server.Round_robin }
      ~arrivals:[| 0.0; 1.0; 2.0 |]
      ~service:(fun _ -> 10.0)
      ()
  in
  check Alcotest.int "served" 0 r.Server.served;
  check Alcotest.int "all shed" 3 r.Server.shed;
  check (Alcotest.float 1e-9) "shed fraction one" 1.0 (Server.shed_fraction r);
  check (Alcotest.float 1e-9) "zero goodput" 0.0 (Server.goodput_rps r);
  check Alcotest.int "empty recorder" 0 (Latency.count r.Server.latency);
  check
    Alcotest.(option (float 1e-9))
    "p99 of nothing is None" None
    (Latency.percentile_opt r.Server.latency ~p:99.0)

let test_server_queue_bound_one_overload () =
  (* Bound 1 under a simultaneous burst: the first arrival occupies the one
     slot; the rest find it full and shed. *)
  let r =
    Server.simulate
      ~config:{ Server.cores = 1; queue_bound = 1; dispatch = Server.Round_robin }
      ~arrivals:[| 0.0; 0.0; 0.0; 0.0 |]
      ~service:(fun _ -> 10.0)
      ()
  in
  check Alcotest.int "one served" 1 r.Server.served;
  check Alcotest.int "rest shed" 3 r.Server.shed;
  check
    Alcotest.(option (float 1e-9))
    "survivor's sojourn" (Some 10.0)
    (Latency.percentile_opt r.Server.latency ~p:100.0)

let test_server_negative_queue_bound_rejected () =
  Alcotest.check_raises "negative bound"
    (Invalid_argument "Server.simulate: queue_bound must be non-negative") (fun () ->
      ignore
        (Server.simulate
           ~config:{ Server.default_config with Server.queue_bound = -1 }
           ~arrivals:[| 0.0 |]
           ~service:(fun _ -> 1.0)
           ()))

let test_dispatch_parse () =
  Alcotest.(check bool) "rr" true (Server.dispatch_of_string "rr" = Ok Server.Round_robin);
  Alcotest.(check bool) "jsq" true
    (Server.dispatch_of_string "JSQ" = Ok Server.Join_shortest_queue);
  Alcotest.(check bool) "junk rejected" true
    (match Server.dispatch_of_string "fifo" with Error _ -> true | Ok _ -> false)

(* A synthetic cost model (no cycle-level runs) for queueing-shape tests. *)
let synthetic ~app ~scheme ~mean =
  {
    Costmodel.app;
    scheme;
    samples = [| 0.8 *. mean; 0.9 *. mean; mean; 1.1 *. mean; 1.2 *. mean |];
    mean_cycles = mean;
  }

let simulate_load ~cores ~mean ~load ~requests =
  let capacity = float_of_int cores *. 2.0e9 /. mean in
  let rate = load *. capacity in
  let arrivals = Arrivals.times ~seed:3 ~mean:(2.0e9 /. rate) ~n:requests in
  let cm = synthetic ~app:"syn" ~scheme:"UNSAFE" ~mean in
  let rng = Pv_util.Rng.create 17 in
  let service = Array.init requests (fun _ -> Costmodel.sample cm rng) in
  Server.simulate
    ~config:{ Server.cores; queue_bound = 32; dispatch = Server.Round_robin }
    ~arrivals
    ~service:(fun i -> service.(i))
    ()

let test_p99_monotone_and_goodput_bounded () =
  (* The acceptance shape, structurally: with common random numbers across
     loads, p99 never decreases as offered load rises, and past saturation
     goodput stays bounded by capacity while shedding absorbs the excess. *)
  let cores = 2 and mean = 1000.0 and requests = 4000 in
  let capacity = float_of_int cores *. 2.0e9 /. mean in
  let results =
    List.map (fun l -> simulate_load ~cores ~mean ~load:l ~requests)
      [ 0.3; 0.5; 0.7; 0.9; 1.1; 1.3 ]
  in
  let p99s = List.map (fun r -> Latency.percentile r.Server.latency ~p:99.0) results in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool)
    (Printf.sprintf "p99 non-decreasing: %s"
       (String.concat " " (List.map (Printf.sprintf "%.0f") p99s)))
    true (monotone p99s);
  List.iter
    (fun r ->
      Alcotest.(check bool) "goodput bounded by capacity" true
        (Server.goodput_rps r <= 1.05 *. capacity))
    results;
  let overloaded = List.nth results 5 in
  Alcotest.(check bool) "overload sheds" true (overloaded.Server.shed > 0);
  let light = List.hd results in
  check Alcotest.int "light load sheds nothing" 0 light.Server.shed

(* --- cost-model calibration (cycle-level, slow) ------------------------ *)

let test_calibrate_orders_schemes () =
  let app = Apps.redis in
  let cal scheme label =
    Costmodel.calibrate ~points:2 ~scheme ~label app
  in
  let unsafe = cal Perspective.Defense.Unsafe "UNSAFE" in
  let fence = cal Perspective.Defense.Fence "FENCE" in
  Array.iter
    (fun s -> Alcotest.(check bool) "samples positive" true (s > 0.0))
    unsafe.Costmodel.samples;
  Alcotest.(check bool)
    (Printf.sprintf "FENCE costs more per request (%.0f vs %.0f cycles)"
       fence.Costmodel.mean_cycles unsafe.Costmodel.mean_cycles)
    true
    (fence.Costmodel.mean_cycles > unsafe.Costmodel.mean_cycles);
  (* determinism: recalibration is bit-identical *)
  let again = cal Perspective.Defense.Unsafe "UNSAFE" in
  Alcotest.(check bool) "recalibration identical" true
    (unsafe.Costmodel.samples = again.Costmodel.samples)

(* --- the Loadsweep experiment ------------------------------------------ *)

let sweep_apps = [ Apps.redis ]
let sweep_variants = [ Schemes.unsafe; Schemes.fence ]
let sweep_labels = List.map (fun v -> v.Schemes.label) sweep_variants
let sweep_loads = [ 0.5; 1.2 ]

let run_sweep ?(config = Supervise.default) () =
  Loadsweep.run ~config ~points:2 ~requests:500 ~loads:sweep_loads ~apps:sweep_apps
    ~variants:sweep_variants ()

let render (o : Loadsweep.outcome) =
  Tab.to_string
    (Loadsweep.table ~requests:500 ~apps:sweep_apps ~labels:sweep_labels ~loads:sweep_loads
       o.Loadsweep.point_sweep)
  ^ Tab.to_string
      (Loadsweep.knee_table ~apps:sweep_apps ~labels:sweep_labels ~loads:sweep_loads
         o.Loadsweep.point_sweep)

let test_loadsweep_deterministic_across_jobs () =
  let serial = run_sweep ~config:{ Supervise.default with jobs = 1 } () in
  let parallel = run_sweep ~config:{ Supervise.default with jobs = 4 } () in
  check Alcotest.string "tables byte-identical for -j1 and -j4" (render serial)
    (render parallel);
  check Alcotest.string "metrics JSON byte-identical"
    (Supervise.render_json (Loadsweep.exports serial))
    (Supervise.render_json (Loadsweep.exports parallel));
  check Alcotest.int "clean exit" 0 (Loadsweep.exit_code serial)

let test_loadsweep_fault_then_resume_converges () =
  (* Crash one point cell (index 2: past the two calibration cells, so the
     fault hits only the point sweep), checkpoint, then resume without the
     fault: the resumed tables must equal an uninterrupted run's bytes. *)
  with_journal (fun path ->
      let fault =
        Fault.plan [ { Fault.index = 2; kind = Fault.Crash; first_attempts = Fault.always } ]
      in
      let faulted =
        run_sweep
          ~config:{ Supervise.default with jobs = 2; fault; checkpoint = Some path }
          ()
      in
      check Alcotest.int "one point cell failed" 1
        (Supervise.failed faulted.Loadsweep.point_sweep);
      check Alcotest.int "calibrations survive" 0
        (Supervise.failed faulted.Loadsweep.cal_sweep);
      check Alcotest.int "degraded exit" 1 (Loadsweep.exit_code faulted);
      let sub = "FAILED" in
      let s = render faulted in
      let rec contains i =
        i + String.length sub <= String.length s
        && (String.sub s i (String.length sub) = sub || contains (i + 1))
      in
      Alcotest.(check bool) "degraded table marks the cell" true (contains 0);
      let resumed =
        run_sweep
          ~config:{ Supervise.default with checkpoint = Some path; resume = true }
          ()
      in
      check Alcotest.int "only the failed cell re-ran" 1
        resumed.Loadsweep.point_sweep.Supervise.executed;
      let clean = run_sweep () in
      check Alcotest.string "resumed tables = uninterrupted run" (render clean)
        (render resumed))

let test_loadsweep_missing_unsafe_rejected () =
  Alcotest.check_raises "variants must include UNSAFE"
    (Invalid_argument "Loadsweep: variants must include UNSAFE (the capacity baseline)")
    (fun () ->
      ignore
        (Loadsweep.point_cells ~loads:[ 0.5 ] ~models:[] ~apps:sweep_apps
           ~variants:[ Schemes.fence ] ()))

let test_loadsweep_all_shed_point_degrades () =
  (* An all-shed cell (queue bound 0 under overload) used to crash the
     recorder with "percentile of an empty distribution"; it must degrade to
     a zero-goodput row whose percentiles render as n/a. *)
  let cm =
    Costmodel.calibrate ~points:2 ~scheme:Perspective.Defense.Unsafe ~label:"UNSAFE" Apps.redis
  in
  let cells =
    Loadsweep.point_cells
      ~server:{ Server.cores = 1; queue_bound = 0; dispatch = Server.Round_robin }
      ~requests:200 ~points:2
      ~loads:[ 1.2 ]
      ~models:[ ("service-cal/redis/UNSAFE", Some cm) ]
      ~apps:sweep_apps
      ~variants:[ Schemes.unsafe ]
      ()
  in
  let sweep = Supervise.run cells in
  check Alcotest.int "the cell itself does not fail" 0 (Supervise.failed sweep);
  (match sweep.Supervise.results with
  | [ (_, Some p) ] ->
    check Alcotest.int "nothing served" 0 p.Loadsweep.served;
    check Alcotest.int "everything shed" 200 p.Loadsweep.shed;
    check (Alcotest.float 1e-9) "zero goodput" 0.0 p.Loadsweep.goodput_krps;
    Alcotest.(check bool) "no p99 to report" true (p.Loadsweep.p99_us = None)
  | _ -> Alcotest.fail "expected exactly one surviving point");
  let rendered =
    Tab.to_string
      (Loadsweep.table ~requests:200 ~apps:sweep_apps ~labels:[ "UNSAFE" ] ~loads:[ 1.2 ] sweep)
  in
  let sub = "n/a" in
  let rec contains i =
    i + String.length sub <= String.length rendered
    && (String.sub rendered i (String.length sub) = sub || contains (i + 1))
  in
  Alcotest.(check bool) "table renders n/a percentiles" true (contains 0)

(* --- Apps.scaled (satellite regression) -------------------------------- *)

let test_apps_scaled_rounds () =
  (* 60 * 0.33 = 19.8: truncation used to give 19 requests, biasing scaled
     workloads low; it must round to nearest. *)
  check Alcotest.int "rounds to nearest" 20 (Apps.scaled Apps.httpd ~factor:0.33).Apps.requests;
  check Alcotest.int "exact factor unchanged" 30
    (Apps.scaled Apps.httpd ~factor:0.5).Apps.requests;
  check Alcotest.int "floor of two" 2 (Apps.scaled Apps.httpd ~factor:0.001).Apps.requests;
  Alcotest.check_raises "zero factor" (Invalid_argument "Apps.scaled: factor must be positive")
    (fun () -> ignore (Apps.scaled Apps.httpd ~factor:0.0));
  Alcotest.check_raises "negative factor"
    (Invalid_argument "Apps.scaled: factor must be positive") (fun () ->
      ignore (Apps.scaled Apps.httpd ~factor:(-1.0)))

let suite =
  [
    ( "service.arrivals",
      [
        Alcotest.test_case "deterministic and increasing" `Quick test_arrivals_deterministic;
        Alcotest.test_case "common random numbers scale" `Quick test_arrivals_crn_scaling;
        Alcotest.test_case "bad mean rejected" `Quick test_arrivals_rejects_bad_mean;
      ] );
    ( "service.latency",
      [
        Alcotest.test_case "matches Stats.percentile" `Quick test_latency_matches_stats;
        Alcotest.test_case "rejects NaN and negative sojourns" `Quick
          test_latency_rejects_bad_sojourns;
        QCheck_alcotest.to_alcotest latency_selection_prop;
      ] );
    ( "service.server",
      [
        Alcotest.test_case "FIFO backlog and shedding" `Quick test_server_fifo_and_shed;
        Alcotest.test_case "JSQ balances ties" `Quick test_server_jsq_balances;
        Alcotest.test_case "input validation" `Quick test_server_validates_inputs;
        Alcotest.test_case "queue bound 0 sheds everything" `Quick
          test_server_queue_bound_zero_sheds_everything;
        Alcotest.test_case "queue bound 1 under a burst" `Quick
          test_server_queue_bound_one_overload;
        Alcotest.test_case "negative queue bound rejected" `Quick
          test_server_negative_queue_bound_rejected;
        Alcotest.test_case "dispatch parsing" `Quick test_dispatch_parse;
        Alcotest.test_case "p99 monotone, goodput bounded" `Quick
          test_p99_monotone_and_goodput_bounded;
      ] );
    ( "service.costmodel",
      [ Alcotest.test_case "calibration orders schemes" `Slow test_calibrate_orders_schemes ] );
    ( "service.loadsweep",
      [
        Alcotest.test_case "byte-identical across -j" `Slow
          test_loadsweep_deterministic_across_jobs;
        Alcotest.test_case "fault, checkpoint, resume, converge" `Slow
          test_loadsweep_fault_then_resume_converges;
        Alcotest.test_case "UNSAFE baseline required" `Quick
          test_loadsweep_missing_unsafe_rejected;
        Alcotest.test_case "all-shed point degrades to n/a" `Slow
          test_loadsweep_all_shed_point_degrades;
      ] );
    ( "service.apps-scaled",
      [ Alcotest.test_case "rounds to nearest" `Quick test_apps_scaled_rounds ] );
  ]
