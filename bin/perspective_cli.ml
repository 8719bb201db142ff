(* Command-line interface for the Perspective reproduction.

   Subcommands:
     attack       run the transient-execution PoCs under a chosen scheme
     surface      ISV attack-surface study (Tables 8.1/8.2, Figure 9.1)
     perf         cycle-level performance runs (Figures 9.2/9.3, Table 10.1)
     service      open-loop load-latency curves (Figure 9.3-tail)
     security     PoC verdict matrix as a supervised sweep (Chapter 8)
     contracts    empirical leakage-contract matrix (attacks x schemes)
     sensitivity  view-cache capacity sweep, supervised
     reproduce    every table and figure of the evaluation, section by section

   The sweeps and tables of each experiment live in [Pv_reproduce.Reproduce],
   so a subcommand and its reproduce section print the same bytes. *)

module E = Pv_experiments
module R = Pv_reproduce.Reproduce
module Tab = Pv_util.Tab
module Defense = Perspective.Defense
module Isv = Perspective.Isv
open Cmdliner

let scheme_conv =
  let parse s =
    match String.uppercase_ascii s with
    | "UNSAFE" -> Ok Defense.Unsafe
    | "FENCE" -> Ok Defense.Fence
    | "DOM" -> Ok Defense.Dom
    | "STT" -> Ok Defense.Stt
    | "PERSPECTIVE-STATIC" -> Ok (Defense.Perspective Isv.Static)
    | "PERSPECTIVE" -> Ok (Defense.Perspective Isv.Dynamic)
    | "PERSPECTIVE++" -> Ok (Defense.Perspective Isv.Plus)
    | "PERSPECTIVE-ALL" | "DSV-ONLY" -> Ok (Defense.Perspective Isv.All)
    | "SAFESPEC" -> Ok Defense.Safespec
    | "SPECBOX" -> Ok Defense.Specbox
    | _ -> Error (`Msg ("unknown scheme: " ^ s))
  in
  Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf (Defense.scheme_name s))

let scheme_arg =
  Arg.(
    value
    & opt (some scheme_conv) None
    & info [ "s"; "scheme" ] ~docv:"SCHEME"
        ~doc:
          "Defense scheme: unsafe, fence, dom, stt, perspective-static, perspective, \
           perspective++, dsv-only, safespec, specbox.  Default: run all.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let scale_arg default =
  Arg.(
    value & opt float default
    & info [ "scale" ] ~docv:"F"
        ~doc:"Workload scale factor (iterations/requests); must be positive and finite.")

let jobs_arg =
  Arg.(
    value
    & opt int (Pv_util.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the experiment runs.  Results are deterministic: \
           any N produces output identical to -j 1 (the serial path).  Default: \
           the recommended domain count of this machine.")

(* --- supervision flags (perf, surface, security, sensitivity, service) --- *)

let fault_conv =
  Arg.conv
    ( (fun s -> Result.map_error (fun m -> `Msg m) (Pv_util.Fault.parse s)),
      fun ppf f ->
        Format.pp_print_string ppf (if Pv_util.Fault.is_none f then "none" else "<plan>") )

let retries_arg =
  Arg.(
    value & opt int 0
    & info [ "retries" ] ~docv:"N"
        ~doc:"Extra attempts for transiently failing cells (crashes) before giving up.")

let fault_arg =
  Arg.(
    value
    & opt fault_conv Pv_util.Fault.none
    & info [ "fault" ] ~docv:"SPEC"
        ~doc:
          "Deterministic fault injection, e.g. $(b,crash@2,livelock@1): job index 2 \
           crashes on every attempt, job 1 livelocks (its run hits the cycle watchdog).  \
           $(b,flaky@N) crashes once and succeeds on retry; $(b,slow@N) and \
           $(b,poison@N) are also available.  With $(b,--workers), $(b,kill@N) \
           SIGKILLs the worker process mid-cell (after it computes the cell, \
           before it sends the result); the attempt is lost, and the \
           coordinator retries it on a fresh worker.  Indices count the cells a \
           sweep executes, in declaration order, after those served from the \
           checkpoint or the cache and those that repeat another cell's inputs, \
           so a spec is reproducible for any -j and any --workers.")

let max_cycles_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-cycles" ] ~docv:"N"
        ~doc:
          "Cycle budget per simulation cell; a cell that exhausts it fails with a \
           structured timeout instead of hanging the sweep.  Default: the \
           simulator's own watchdog.")

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"DIR"
        ~doc:
          "Store completed cells in the directory $(docv) (created if missing) as \
           they finish, each under its canonical input descriptor.  Entries a \
           previous run left are kept: one is served only to a $(b,--resume) run \
           of a cell with the very same inputs.")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Serve cells whose inputs the $(b,--checkpoint) directory already holds \
           instead of re-running them; only the rest (e.g. previously failed or \
           interrupted cells, or cells whose seed or scale changed) execute.  A \
           missing, empty or non-directory checkpoint is a usage error.")

let cache_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"DIR"
        ~doc:
          "Persistent result cache: before running, each cell looks its canonical \
           input descriptor up in $(docv) (reported as CACHED; fault injection and \
           retries are skipped), and stores its result after.  A warm re-run of an \
           unchanged sweep performs zero simulation and produces byte-identical \
           tables and metrics.  Corrupt or version-mismatched entries are dropped \
           and recomputed, never trusted.")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:"Ignore $(b,--cache): neither consult nor write the result cache.")

let cache_stats_arg =
  Arg.(
    value & flag
    & info [ "cache-stats" ]
        ~doc:
          "After the run, print one line of result-cache counters \
           (hits/misses/writes/write_errors/corrupt_dropped) to stderr.  Requires \
           $(b,--cache).")

let workers_arg =
  Arg.(
    value & opt int 1
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Run sweep cells on $(docv) worker $(i,processes), forked for each \
           sweep, instead of in-process domains.  Each worker sends every \
           result back over its pipe.  The coordinator survives worker death \
           — including injected $(b,--fault kill@I) — by retrying the lost \
           attempt under $(b,--retries) on a fresh worker, and keeps every \
           result that reached it; tables and $(b,--metrics) output are \
           byte-identical to $(b,--workers 1).  Only the coordinator writes \
           the $(b,--checkpoint) and the $(b,--cache), each result as it \
           arrives.  Worker processes run one cell at a time, so $(b,-j) has \
           no effect when $(docv) > 1.")

(* The supervision flags evaluate to a [Supervise.config] without its
   cache, paired with the cache directory ([None] under --no-cache) and
   --cache-stats: the cache is opened only once [with_sup_config] has
   checked every flag. *)
let sup_term =
  let mk jobs retries fault max_cycles checkpoint resume cache_dir no_cache cache_stats
      workers =
    ( { E.Supervise.default with jobs; retries; fault; max_cycles; checkpoint; resume; workers },
      (if no_cache then None else cache_dir),
      cache_stats )
  in
  Cmdliner.Term.(
    const mk $ jobs_arg $ retries_arg $ fault_arg $ max_cycles_arg $ checkpoint_arg
    $ resume_arg $ cache_arg $ no_cache_arg $ cache_stats_arg $ workers_arg)

(* Where a run will write, checked before any cell runs: [path] must be
   (or become) a file or, with [dir], a directory, in a directory that
   exists. *)
let output_error ~flag ?(dir = false) path =
  let parent = Filename.dirname path in
  if Sys.file_exists path && Sys.is_directory path <> dir then
    Some
      (Printf.sprintf "%s %S is %s" flag path
         (if dir then "not a directory" else "a directory"))
  else if not (Sys.file_exists parent && Sys.is_directory parent) then
    Some (Printf.sprintf "%s %S: directory %S does not exist" flag path parent)
  else None

(* Validate the supervision flags and the [outputs] a command will write
   (each an [output_error] check), open the cache, run [f] with the config,
   and print the cache counters afterwards if asked.  Validation failures
   are one-line stderr diagnostics with exit code 2 (usage error), and
   nothing is created before they pass — notably a --resume pointing at a
   missing, empty or non-directory checkpoint, which must not surface as an
   exception backtrace.  Commands with a --scale pass it as [scale]. *)
let with_sup_config ?(outputs = []) ?(scale = 1.0)
    ((config : E.Supervise.config), cache_dir, cache_stats) f =
  let usage fmt = Printf.ksprintf (fun m -> Printf.eprintf "%s\n" m; 2) fmt in
  let run () =
    let config = { config with cache = Option.map Pv_util.Rescache.open_dir cache_dir } in
    let code = f config in
    if cache_stats then Option.iter Pv_util.Rescache.report config.cache;
    code
  in
  let store_errors =
    [
      Option.bind config.checkpoint (output_error ~flag:"--checkpoint" ~dir:true);
      Option.bind cache_dir (output_error ~flag:"--cache" ~dir:true);
    ]
  in
  match List.find_map Fun.id (store_errors @ outputs) with
  | Some msg -> usage "%s" msg
  | None when config.resume && config.checkpoint = None ->
    usage "--resume requires --checkpoint DIR"
  | None when not (scale > 0.0 && Float.is_finite scale) ->
    usage "--scale must be a positive finite number, got %g" scale
  | None when cache_stats && cache_dir = None ->
    usage "--cache-stats requires --cache DIR (and not --no-cache)"
  | None when config.jobs < 1 -> usage "-j must be >= 1"
  | None when config.workers < 1 -> usage "--workers must be >= 1"
  | None when config.retries < 0 -> usage "--retries must be >= 0, got %d" config.retries
  | None when Option.value config.max_cycles ~default:1 < 1 ->
    usage "--max-cycles must be >= 1, got %d" (Option.get config.max_cycles)
  | None -> (
    match config.checkpoint with
    | Some dir when config.resume -> (
      match E.Supervise.resume_preflight dir with
      | Error why -> usage "cannot resume: %s" why
      | Ok n ->
        Printf.eprintf "resuming from %S: %d entr%s\n%!" dir n (if n = 1 then "y" else "ies");
        run ())
    | _ -> run ())

(* --- telemetry flags (perf, service, reproduce) --- *)

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Export every cell's metric snapshot plus per-sweep summaries as JSON to \
           $(docv).  Deterministic: for a fixed workload the file is byte-identical \
           for any -j once the single wall-clock member is stripped \
           ($(b,grep -v '\"elapsed_s\"')).")

let trace_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-dir" ] ~docv:"DIR"
        ~doc:
          "Record the pipeline's bounded event trace (squashes, fences, VP releases \
           with cycle stamps) for every cell and dump one JSONL file per cell into \
           $(docv).")

(* --- attack --- *)

let attack_kinds = [ "v1"; "v2"; "rsb"; "all" ]

let attack_cmd =
  let kind =
    Arg.(
      value & pos 0 (enum (List.map (fun k -> (k, k)) attack_kinds)) "all"
      & info [] ~docv:"ATTACK" ~doc:"v1 (active), v2 (passive), rsb (passive), or all.")
  in
  let run kind scheme seed =
    let schemes =
      match scheme with
      | Some s -> [ s ]
      | None ->
        [
          Defense.Unsafe; Defense.Fence; Defense.Dom; Defense.Stt;
          Defense.Perspective Isv.All; Defense.Perspective Isv.Static;
          Defense.Perspective Isv.Dynamic; Defense.Perspective Isv.Plus;
          Defense.Safespec; Defense.Specbox;
        ]
    in
    let families =
      [
        ("v1", "Spectre v1 (active)", fun scheme -> Pv_attacks.Spectre_v1.run ~seed ~scheme ());
        ( "v2",
          "Spectre v2 (passive, type confusion)",
          fun scheme -> Pv_attacks.Spectre_v2.run ~seed ~scheme () );
        ( "rsb",
          "Spectre-RSB (passive, ret2spec)",
          fun scheme -> Pv_attacks.Spectre_rsb.run ~seed ~scheme () );
      ]
    in
    List.iter
      (fun (name, title, attack) ->
        if kind = name || kind = "all" then begin
          Printf.printf "%s:\n" title;
          List.iter
            (fun scheme ->
              let (o : Pv_attacks.Lab.outcome) = attack scheme in
              Printf.printf "  %-22s secret=%3d leaked=%-4s fences=%-3d -> %s\n" o.scheme
                o.secret
                (match o.leaked with Some v -> string_of_int v | None -> "none")
                o.fences
                (if o.success then "SECRET LEAKED" else "blocked"))
            schemes
        end)
      families;
    0
  in
  let doc = "Run transient-execution attack PoCs on the simulator." in
  Cmd.v (Cmd.info "attack" ~doc) Term.(const run $ kind $ scheme_arg $ seed_arg)

(* --- surface --- *)

let surface_cmd =
  let run seed sup = with_sup_config sup (R.sections (fun r -> R.surface r ~seed)) in
  let doc = "ISV attack-surface study: Tables 8.1/8.2 and Figure 9.1." in
  Cmd.v (Cmd.info "surface" ~doc) Term.(const run $ seed_arg $ sup_term)

(* --- perf --- *)

let perf_cmd =
  let workload =
    Arg.(
      value & opt (some string) None
      & info [ "w"; "workload" ] ~docv:"NAME"
          ~doc:"One LEBench test or app name; default: everything.")
  in
  let run workload scheme seed scale sup metrics trace_dir =
    let variants =
      match scheme with
      | Some s ->
        (* UNSAFE is always prepended as the baseline; keep only the other
           variants of the requested scheme, so `-s unsafe` does not produce
           two UNSAFE cells (duplicate keys abort the sweep). *)
        E.Schemes.unsafe
        :: List.filter
             (fun v ->
               v.E.Schemes.scheme = s && v.E.Schemes.label <> E.Schemes.unsafe.E.Schemes.label)
             (E.Schemes.standard @ E.Schemes.hardware)
      | None -> E.Schemes.standard @ E.Schemes.hardware
    in
    let tests =
      match workload with
      | None -> Pv_workloads.Lebench.tests
      | Some w -> (
        match List.find_opt (fun t -> t.Pv_workloads.Lebench.name = w) Pv_workloads.Lebench.tests with
        | Some t -> [ t ]
        | None -> [])
    in
    let apps =
      match workload with
      | None -> Pv_workloads.Apps.all
      | Some w -> List.filter (fun a -> a.Pv_workloads.Apps.name = w) Pv_workloads.Apps.all
    in
    if tests = [] && apps = [] then begin
      Printf.eprintf "unknown workload\n";
      2
    end
    else
      let outputs =
        [
          Option.bind metrics (output_error ~flag:"--metrics");
          Option.bind trace_dir (output_error ~flag:"--trace-dir" ~dir:true);
        ]
      in
      with_sup_config ~outputs ~scale sup
        (R.sections (fun r ->
             let labels = List.map (fun v -> v.E.Schemes.label) variants in
             let micro, macro, _ =
               R.perf_matrices r ~seed ~scale ~variants ~tests ~apps ?metrics ?trace_dir ()
             in
             if tests <> [] then Tab.print (E.Perf_report.fig_lebench_partial ~labels micro);
             if apps <> [] then Tab.print (E.Perf_report.fig_apps_partial ~labels macro)))
  in
  let doc = "Cycle-level performance runs (Figures 9.2/9.3)." in
  Cmd.v
    (Cmd.info "perf" ~doc)
    Term.(
      const run $ workload $ scheme_arg $ seed_arg $ scale_arg 1.0 $ sup_term
      $ metrics_arg $ trace_dir_arg)

(* --- service --- *)

let split_commas s =
  String.split_on_char ',' s |> List.map String.trim |> List.filter (fun x -> x <> "")

let service_cmd =
  let app_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "app" ] ~docv:"NAMES"
          ~doc:"Comma-separated datacenter app names.  Default: all apps.")
  in
  let schemes_arg =
    Arg.(
      value
      & opt string "UNSAFE,FENCE,PERSPECTIVE"
      & info [ "schemes" ] ~docv:"LABELS"
          ~doc:
            "Comma-separated scheme labels (UNSAFE, FENCE, PERSPECTIVE-STATIC, \
             PERSPECTIVE, PERSPECTIVE++, DOM, STT).  UNSAFE is always included: it \
             calibrates the capacity every load fraction is relative to.")
  in
  let loads_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "load" ] ~docv:"FRACTIONS"
          ~doc:
            "Comma-separated offered loads as fractions of the app's UNSAFE \
             capacity, e.g. $(b,0.5,0.9,1.2).  Default: \
             0.3,0.5,0.7,0.85,0.95,1.1,1.3.")
  in
  let cores_arg =
    Arg.(value & opt int 4 & info [ "cores" ] ~docv:"N" ~doc:"Simulated server cores.")
  in
  let queue_bound_arg =
    Arg.(
      value & opt int 32
      & info [ "queue-bound" ] ~docv:"N"
          ~doc:
            "Per-core admission bound (counting the request in service); an arrival \
             finding a full queue is shed.")
  in
  let dispatch_arg =
    Arg.(
      value & opt string "rr"
      & info [ "dispatch" ] ~docv:"POLICY"
          ~doc:"Dispatch policy: $(b,rr) (round-robin) or $(b,jsq) (join-shortest-queue).")
  in
  let requests_arg =
    Arg.(
      value & opt int 5000
      & info [ "requests" ] ~docv:"N" ~doc:"Open-loop arrivals per load point.")
  in
  let run app schemes loads cores queue_bound dispatch requests seed sup metrics_file =
    let usage fmt = Printf.ksprintf (fun m -> Printf.eprintf "%s\n" m; 2) fmt in
    match E.Loadsweep.Server.dispatch_of_string dispatch with
    | Error e -> usage "%s" e
    | Ok dispatch -> (
      let apps =
        match app with
        | None -> Ok Pv_workloads.Apps.all
        | Some names ->
          List.fold_left
            (fun acc name ->
              Result.bind acc (fun apps ->
                  match
                    List.find_opt
                      (fun a -> a.Pv_workloads.Apps.name = name)
                      Pv_workloads.Apps.all
                  with
                  | Some a -> Ok (apps @ [ a ])
                  | None -> Error name))
            (Ok []) (split_commas names)
      in
      match apps with
      | Error name -> usage "unknown app %S" name
      | Ok [] -> usage "no apps selected"
      | Ok apps -> (
        let labels = List.map String.uppercase_ascii (split_commas schemes) in
        let labels = if List.mem "UNSAFE" labels then labels else "UNSAFE" :: labels in
        (* First occurrence wins: a repeated label would declare duplicate
           cell keys and abort the sweep. *)
        let labels =
          List.rev
            (List.fold_left
               (fun acc l -> if List.mem l acc then acc else l :: acc)
               [] labels)
        in
        let variants =
          List.fold_left
            (fun acc label ->
              Result.bind acc (fun vs ->
                  match
                    List.find_opt
                      (fun v -> v.E.Schemes.label = label)
                      (E.Schemes.standard @ E.Schemes.hardware)
                  with
                  | Some v -> Ok (vs @ [ v ])
                  | None -> Error label))
            (Ok []) labels
        in
        match variants with
        | Error label -> usage "unknown scheme label %S for the service model" label
        | Ok variants -> (
          let loads =
            match loads with
            | None -> Ok E.Loadsweep.default_loads
            | Some s -> (
              try
                let ls = List.map float_of_string (split_commas s) in
                if ls = [] || List.exists (fun l -> Float.is_nan l || l <= 0.0) ls then
                  Error s
                else Ok ls
              with _ -> Error s)
          in
          match loads with
          | Error s -> usage "bad load list %S (expected positive fractions)" s
          | Ok loads ->
            if cores <= 0 then usage "--cores must be positive"
            else if queue_bound < 0 then
              usage "--queue-bound must be non-negative (0 sheds every arrival)"
            else if requests <= 0 then usage "--requests must be positive"
            else
              let outputs = [ Option.bind metrics_file (output_error ~flag:"--metrics") ] in
              with_sup_config ~outputs sup
                (R.sections (fun r ->
                     let server = { E.Loadsweep.Server.cores; queue_bound; dispatch } in
                     R.service r ~seed ~requests ~server ~loads ~apps ~variants
                       ?metrics:metrics_file ())))))
  in
  let doc =
    "Open-loop request serving: load-latency curves, saturation knees and overload \
     shedding per defense scheme (Figure 9.3-tail)."
  in
  Cmd.v
    (Cmd.info "service" ~doc)
    Term.(
      const run $ app_arg $ schemes_arg $ loads_arg $ cores_arg $ queue_bound_arg
      $ dispatch_arg $ requests_arg $ seed_arg $ sup_term $ metrics_arg)

(* --- security --- *)

let security_cmd =
  let attacks_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "attacks" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated attack families to run ($(b,v1), $(b,v2), $(b,rsb)).  \
             Default: all three.")
  in
  let run seed attacks sup =
    let usage fmt = Printf.ksprintf (fun m -> Printf.eprintf "%s\n" m; 2) fmt in
    let attacks = Option.map split_commas attacks in
    if attacks = Some [] then usage "--attacks lists no attack families"
    else
      match
        try Ok (E.Security.run_pocs_cells ~seed ?attacks ())
        with Invalid_argument msg -> Error msg
      with
      | Error msg -> usage "%s" msg
      | Ok cells -> with_sup_config sup (R.sections (fun r -> R.pocs r cells))
  in
  let doc =
    "Proof-of-concept transient-execution attacks under every scheme (Chapter 8), \
     as a supervised sweep."
  in
  Cmd.v (Cmd.info "security" ~doc)
    Term.(const run $ seed_arg $ attacks_arg $ sup_term)

(* --- contracts --- *)

let contracts_cmd =
  let module C = Pv_contracts.Contracts in
  let attacks_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "attacks" ] ~docv:"NAMES"
          ~doc:
            (Printf.sprintf "Comma-separated attack names (%s).  Default: all."
               (String.concat ", " C.attack_names)))
  in
  let schemes_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "schemes" ] ~docv:"LABELS"
          ~doc:
            (Printf.sprintf "Comma-separated scheme labels (%s).  Default: all."
               (String.concat ", " C.scheme_labels)))
  in
  let csv_arg =
    Arg.(
      value & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the matrix as CSV to $(docv).")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Keys the cells' cache and checkpoint entries, and nothing else today: an \
             attack draws its secret from the seed only when none is planted, and \
             every cell plants both secrets, so every seed prints the same matrix.")
  in
  let run seed attacks schemes csv sup =
    let usage fmt = Printf.ksprintf (fun m -> Printf.eprintf "%s\n" m; 2) fmt in
    let attacks = Option.map split_commas attacks in
    let schemes = Option.map split_commas schemes in
    if attacks = Some [] then usage "--attacks lists no attack names"
    else if schemes = Some [] then usage "--schemes lists no scheme labels"
    else
      match
        (* Normalize scheme labels through the registry so matrix lookups
           match the canonical cell keys whatever the input case. *)
        try
          let schemes =
            Option.map (List.map (fun l -> Defense.scheme_name (C.find_scheme l))) schemes
          in
          Ok (schemes, C.cells ~seed ?attacks ?schemes ())
        with Invalid_argument msg -> Error msg
      with
      | Error msg -> usage "%s" msg
      | Ok (schemes, cells) ->
        let outputs = [ Option.bind csv (output_error ~flag:"--csv") ] in
        with_sup_config ~outputs sup
          (R.sections (fun r -> R.contracts r ?attacks ?schemes ?csv cells))
  in
  let doc =
    "Empirical leakage-contract matrix: run every attack twice with differing \
     planted secrets under every scheme, diff the canonical observation traces \
     and classify each cell as ARCH-SEQ, CT-SEQ or CT-SPEC."
  in
  Cmd.v (Cmd.info "contracts" ~doc)
    Term.(const run $ seed_arg $ attacks_arg $ schemes_arg $ csv_arg $ sup_term)

(* --- sensitivity --- *)

let sensitivity_cmd =
  let run seed scale sup =
    with_sup_config ~scale sup (R.sections (fun r -> R.cache_size r ~seed ~scale))
  in
  let doc = "View-cache capacity sensitivity sweep (32..512 entries), supervised." in
  Cmd.v
    (Cmd.info "sensitivity" ~doc)
    Term.(const run $ seed_arg $ scale_arg 0.6 $ sup_term)

(* --- reproduce --- *)

let reproduce_cmd =
  let only_arg =
    Arg.(
      value
      & opt (some (enum (List.map (fun l -> (l, l)) R.labels))) None
      & info [ "only" ] ~docv:"LABEL"
          ~doc:(Printf.sprintf "Run one section only: %s." (Arg.doc_alts R.labels)))
  in
  let quick_arg =
    Arg.(value & flag & info [ "quick" ] ~doc:"Scaled-down run: the same as $(b,--scale 0.3).")
  in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR"
          ~doc:
            "Also write Figures 9.2, 9.3 and 9.3-tail and the contract matrix as CSV \
             files into $(docv), created if missing.")
  in
  let run only quick scale csv metrics trace_dir sup =
    let scale = if quick then 0.3 else scale in
    let outputs =
      [
        Option.bind csv (output_error ~flag:"--csv" ~dir:true);
        Option.bind metrics (output_error ~flag:"--metrics");
        Option.bind trace_dir (output_error ~flag:"--trace-dir" ~dir:true);
      ]
    in
    with_sup_config ~outputs ~scale sup (fun config ->
        R.run ~config ~scale ?only ?csv ?metrics ?trace_dir ())
  in
  let doc =
    "Regenerate every table and figure of the evaluation (several minutes at full \
     scale), section by section, as the per-experiment subcommands print them.  \
     $(b,--metrics) and $(b,--trace-dir) cover the performance matrices."
  in
  Cmd.v
    (Cmd.info "reproduce" ~doc)
    Term.(
      const run $ only_arg $ quick_arg $ scale_arg 1.0 $ csv_arg $ metrics_arg $ trace_dir_arg
      $ sup_term)

let () =
  let doc = "Perspective: pliable and secure speculation in operating systems (reproduction)" in
  let info = Cmd.info "perspective" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [
        attack_cmd; surface_cmd; perf_cmd; service_cmd; security_cmd; contracts_cmd;
        sensitivity_cmd; reproduce_cmd;
      ]
  in
  (* Exit codes: 0 clean, 1 a sweep had failed cells (commands return it),
     2 usage error, 125 unexpected exception. *)
  exit
    (match Cmd.eval_value group with
    | Ok (`Ok code) -> code
    | Ok (`Version | `Help) -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> 125)
