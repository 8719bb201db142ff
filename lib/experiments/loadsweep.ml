module Apps = Pv_workloads.Apps
module Costmodel = Pv_service.Costmodel
module Arrivals = Pv_service.Arrivals
module Server = Pv_service.Server
module Latency = Pv_service.Latency
module Rng = Pv_util.Rng
module Metrics = Pv_util.Metrics
module Tab = Pv_util.Tab

type point = {
  app : string;
  scheme : string;
  load : float;
  offered_krps : float;
  (* [None] = nothing was served (e.g. an all-shed overload point): there is
     no latency distribution, and the table renders "n/a". *)
  p50_us : float option;
  p95_us : float option;
  p99_us : float option;
  p999_us : float option;
  goodput_krps : float;
  offered : int;
  served : int;
  shed : int;
  metrics : Metrics.snapshot;
}

let default_loads = [ 0.3; 0.5; 0.7; 0.85; 0.95; 1.1; 1.3 ]

let cal_key app label = Printf.sprintf "service-cal/%s/%s" app label
let point_key app label load = Printf.sprintf "service/%s/%s/%.2f" app label load

(* Deterministic seed derivation from strings: load points must agree on
   their arrival/service streams across cells, worker processes and resumes,
   so nothing here may depend on hashing internals or execution order. *)
let key_seed base s =
  String.fold_left (fun acc c -> ((acc * 131) + Char.code c) land 0x3FFFFFFF) base s

(* Cache descriptors: the canonical serialization of every input of the
   measurement.  The app contributes its request mix implicitly through its
   name plus the two knobs scaling can change (requests, user_work); the
   calibration knobs warm/chunk/block_unknown are this family's fixed
   defaults, folded into Rescache.code_salt.  Fuel only decides failure and
   successes alone are stored, so it stays out of the key. *)
let cal_descriptor ~points ~seed (a : Apps.app) label =
  Printf.sprintf "service-cal|app=%s|req=%d|uw=%d|scheme=%s|seed=%d|points=%d"
    a.Apps.name a.Apps.requests a.Apps.user_work label seed
    (Option.value points ~default:4)

let calibration_cells ?(seed = 42) ?points ~apps ~variants () =
  List.concat_map
    (fun (a : Apps.app) ->
      List.map
        (fun (v : Schemes.variant) ->
          Supervise.cell
            ~cache:(cal_descriptor ~points ~seed a v.Schemes.label)
            (cal_key a.Apps.name v.Schemes.label)
            (fun ~fuel ->
              Costmodel.calibrate ~seed ?points ?fuel ~scheme:v.Schemes.scheme
                ~label:v.Schemes.label a))
        variants)
    apps

let find_model models key =
  match List.assoc_opt key models with
  | Some (Some m) -> m
  | Some None | None ->
    failwith (Printf.sprintf "Loadsweep: no calibrated cost model for %s" key)

(* cycles -> microseconds at the simulator's 2 GHz clock *)
let us_of_cycles c = c /. 2000.0

let measure_point ~seed ~requests ~server ~models (a : Apps.app)
    (v : Schemes.variant) ~load =
  let cm = find_model models (cal_key a.Apps.name v.Schemes.label) in
  let base = find_model models (cal_key a.Apps.name "UNSAFE") in
  (* Offered rate = load fraction of the UNSAFE saturation throughput, so
     every scheme of an app is presented the *same* absolute load and the
     scheme with the fatter service time saturates first. *)
  let rate_rps = load *. Costmodel.capacity_rps base ~cores:server.Server.cores in
  let mean_ia = 2.0e9 /. rate_rps in
  let arrivals =
    Arrivals.times ~seed:(key_seed seed a.Apps.name) ~mean:mean_ia ~n:requests
  in
  let svc_rng = Rng.create (key_seed (key_seed seed a.Apps.name) v.Schemes.label) in
  let service = Array.init requests (fun _ -> Costmodel.sample cm svc_rng) in
  let r = Server.simulate ~config:server ~arrivals ~service:(fun i -> service.(i)) () in
  let pct p = Option.map us_of_cycles (Latency.percentile_opt r.Server.latency ~p) in
  let p50_us = pct 50.0 and p95_us = pct 95.0 and p99_us = pct 99.0 and p999_us = pct 99.9 in
  let goodput_krps = Server.goodput_rps r /. 1000.0 in
  let reg = Metrics.create () in
  Metrics.set_int reg "service.offered" r.Server.offered;
  Metrics.set_int reg "service.served" r.Server.served;
  Metrics.set_int reg "service.shed" r.Server.shed;
  Metrics.set_float reg "service.load_fraction" load;
  Metrics.set_float reg "service.offered_krps" (rate_rps /. 1000.0);
  Metrics.set_float reg "service.goodput_krps" goodput_krps;
  Metrics.set_float reg "service.utilization" (Server.utilization r);
  (* Percentile keys are simply absent for an all-shed point — there is no
     latency distribution to report, and the key-set difference is itself a
     deterministic function of the inputs. *)
  let set_pct name = Option.iter (Metrics.set_float reg name) in
  set_pct "service.p50_us" p50_us;
  set_pct "service.p95_us" p95_us;
  set_pct "service.p99_us" p99_us;
  set_pct "service.p999_us" p999_us;
  Latency.observe_metrics reg ~prefix:"service.latency_cycles" r.Server.latency;
  {
    app = a.Apps.name;
    scheme = v.Schemes.label;
    load;
    offered_krps = rate_rps /. 1000.0;
    p50_us;
    p95_us;
    p99_us;
    p999_us;
    goodput_krps;
    offered = r.Server.offered;
    served = r.Server.served;
    shed = r.Server.shed;
    metrics = Metrics.snapshot reg;
  }

(* A point is keyed by its load printed at two decimals, so two loads that
   print alike would be one key twice. *)
let check_loads loads =
  if loads = [] then invalid_arg "Loadsweep: loads must be non-empty";
  List.iter
    (fun l ->
      if Float.is_nan l || l <= 0.0 then invalid_arg "Loadsweep: loads must be positive";
      if not (Float.is_finite l) then invalid_arg "Loadsweep: loads must be finite")
    loads;
  let keys = List.map (Printf.sprintf "%.2f") loads in
  if List.length (List.sort_uniq compare keys) <> List.length keys then
    invalid_arg "Loadsweep: two loads print alike at two decimals"

let check_variants variants =
  if not (List.exists (fun (v : Schemes.variant) -> v.Schemes.label = "UNSAFE") variants)
  then invalid_arg "Loadsweep: variants must include UNSAFE (the capacity baseline)"

(* A point's result is a function of the calibration models too; they are
   not in scope as data here, but they are pinned by the same (app, scheme,
   seed, points) tuple that keyed the calibration cells, so including
   [points] pins them transitively.  Callers must pass the same [points]
   they calibrated with ({!run} does). *)
let point_descriptor ~points ~seed ~requests ~(server : Server.config) (a : Apps.app)
    label ~load =
  Printf.sprintf
    "service|app=%s|req=%d|uw=%d|scheme=%s|seed=%d|points=%d|requests=%d|cores=%d|qb=%d|disp=%s|load=%.17g"
    a.Apps.name a.Apps.requests a.Apps.user_work label seed
    (Option.value points ~default:4)
    requests server.Server.cores server.Server.queue_bound
    (Server.dispatch_to_string server.Server.dispatch)
    load

let point_cells ?(seed = 42) ?points ?(requests = 5000) ?(server = Server.default_config)
    ~loads ~models ~apps ~variants () =
  check_loads loads;
  check_variants variants;
  if requests <= 0 then invalid_arg "Loadsweep: requests must be positive";
  List.concat_map
    (fun (a : Apps.app) ->
      List.concat_map
        (fun (v : Schemes.variant) ->
          List.map
            (fun load ->
              Supervise.cell
                ~cache:
                  (point_descriptor ~points ~seed ~requests ~server a
                     v.Schemes.label ~load)
                (point_key a.Apps.name v.Schemes.label load)
                (fun ~fuel:_ ->
                  measure_point ~seed ~requests ~server ~models a v ~load))
            loads)
        variants)
    apps

type outcome = {
  cal_sweep : Costmodel.t Supervise.sweep;
  point_sweep : point Supervise.sweep;
}

let run ?(config = Supervise.default) ?seed ?points ?requests ?server ?(loads = default_loads)
    ~apps ~variants () =
  check_loads loads;
  check_variants variants;
  let cal_sweep = Supervise.run ~config (calibration_cells ?seed ?points ~apps ~variants ()) in
  let point_sweep =
    Supervise.run ~config
      (point_cells ?seed ?points ?requests ?server ~loads
         ~models:cal_sweep.Supervise.results ~apps ~variants ())
  in
  { cal_sweep; point_sweep }

(* --- rendering -------------------------------------------------------- *)

let lookup sweep key = Option.join (List.assoc_opt key sweep.Supervise.results)

let table ?(server = Server.default_config) ?(requests = 5000) ~apps ~labels ~loads sweep =
  let tab =
    Tab.create
      ~title:
        (Printf.sprintf
           "Figure 9.3-tail: open-loop load-latency curves (%d cores, queue bound %d, \
            dispatch %s)"
           server.Server.cores server.Server.queue_bound
           (Server.dispatch_to_string server.Server.dispatch))
      ~header:
        [
          ("App", Tab.Left);
          ("Scheme", Tab.Left);
          ("load", Tab.Right);
          ("offered kRPS", Tab.Right);
          ("p50 us", Tab.Right);
          ("p95 us", Tab.Right);
          ("p99 us", Tab.Right);
          ("p99.9 us", Tab.Right);
          ("goodput kRPS", Tab.Right);
          ("shed", Tab.Right);
        ]
  in
  List.iter
    (fun (a : Apps.app) ->
      List.iteri
        (fun vi label ->
          List.iteri
            (fun li load ->
              let app_col = if vi = 0 && li = 0 then a.Apps.name else "" in
              let scheme_col = if li = 0 then label else "" in
              match lookup sweep (point_key a.Apps.name label load) with
              | Some p ->
                let us = function Some v -> Tab.fl ~dec:1 v | None -> "n/a" in
                Tab.row tab
                  [
                    app_col;
                    scheme_col;
                    Tab.fl load;
                    Tab.fl ~dec:1 p.offered_krps;
                    us p.p50_us;
                    us p.p95_us;
                    us p.p99_us;
                    us p.p999_us;
                    Tab.fl ~dec:1 p.goodput_krps;
                    Tab.pct (100.0 *. float_of_int p.shed /. float_of_int (max 1 p.offered));
                  ]
              | None ->
                Tab.row tab
                  (app_col :: scheme_col :: Tab.fl load
                  :: List.init 7 (fun _ -> "FAILED")))
            loads)
        labels)
    apps;
  Tab.caption tab
    (Printf.sprintf
       "Loads are fractions of each app's calibrated UNSAFE capacity; %d open-loop \
        requests per point, service times calibrated from cycle-level runs.  Admission \
        control sheds past the queue bound, so overload degrades to bounded p99 + \
        measured goodput instead of unbounded latency."
       requests);
  tab

let knee_table ~apps ~labels ~loads sweep =
  let loads = List.sort compare loads in
  let top = List.nth loads (List.length loads - 1) in
  let tab =
    Tab.create
      ~title:"Saturation knee per scheme (highest load with <= 1% shed)"
      ~header:
        [
          ("App", Tab.Left);
          ("Scheme", Tab.Left);
          ("knee load", Tab.Right);
          ("knee kRPS", Tab.Right);
          ("goodput@top kRPS", Tab.Right);
          ("shed@top", Tab.Right);
        ]
  in
  List.iter
    (fun (a : Apps.app) ->
      List.iteri
        (fun vi label ->
          let points =
            List.filter_map (fun l -> lookup sweep (point_key a.Apps.name label l)) loads
          in
          let app_col = if vi = 0 then a.Apps.name else "" in
          if points = [] then Tab.row tab [ app_col; label; "FAILED" ]
          else begin
            let knee =
              List.fold_left
                (fun acc p ->
                  if float_of_int p.shed <= 0.01 *. float_of_int (max 1 p.offered) then
                    Some p
                  else acc)
                None
                (List.sort (fun a b -> compare a.load b.load) points)
            in
            let at_top = List.find_opt (fun p -> p.load = top) points in
            Tab.row tab
              [
                app_col;
                label;
                (match knee with Some p -> Tab.fl p.load | None -> "-");
                (match knee with Some p -> Tab.fl ~dec:1 p.offered_krps | None -> "-");
                (match at_top with
                | Some p -> Tab.fl ~dec:1 p.goodput_krps
                | None -> "-");
                (match at_top with
                | Some p ->
                  Tab.pct (100.0 *. float_of_int p.shed /. float_of_int (max 1 p.offered))
                | None -> "-");
              ]
          end)
        labels)
    apps;
  Tab.caption tab
    "A scheme with fatter per-request service times saturates at a lower offered \
     kRPS; past the knee, goodput holds at capacity while admission control sheds \
     the excess.";
  tab

let exports ?elapsed o =
  [
    Supervise.export ?elapsed ~metrics_of:Costmodel.snapshot ~label:"service-cal" o.cal_sweep;
    Supervise.export ?elapsed
      ~metrics_of:(fun (p : point) -> p.metrics)
      ~label:"service" o.point_sweep;
  ]

let exit_code o =
  max (Supervise.exit_code [ o.cal_sweep ]) (Supervise.exit_code [ o.point_sweep ])
