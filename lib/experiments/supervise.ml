(* Supervised sweep driver: Pool.map_results + Fault + Journal glued into
   the experiment layer's unit of work (the keyed cell).

   Livelock faults are realized here rather than in the pool: a livelocked
   simulation cannot be faked by an exception, so the supervisor starves the
   cell's cycle fuel and lets the pipeline's max_cycles watchdog produce the
   structured Machine.Run_timeout. *)

module Pool = Pv_util.Pool
module Fault = Pv_util.Fault
module Journal = Pv_util.Journal
module Rescache = Pv_util.Rescache
module Procpool = Pv_util.Procpool

type 'a cell = { key : string; cache : string option; run : fuel:int option -> 'a }

let cell ?cache key run = { key; cache; run }

type failure = { key : string; attempts : int; elapsed : float; reason : string }

type 'a sweep = {
  results : (string * 'a option) list;
  failures : failure list;
  restored : int;
  cached : int;
  deduped : int;
  executed : int;
}

type config = {
  jobs : int;
  retries : int;
  fault : Fault.t;
  max_cycles : int option;
  livelock_fuel : int;
  checkpoint : string option;
  resume : bool;
  cache : Rescache.t option;
  workers : int;
}

let default =
  {
    jobs = 1;
    retries = 0;
    fault = Fault.none;
    max_cycles = None;
    livelock_fuel = 5_000;
    checkpoint = None;
    resume = false;
    cache = None;
    workers = 1;
  }

(* Dead-worker replacements allowed per multi-process sweep. *)
let respawns = 8

(* --- multi-process plumbing -------------------------------------------- *)

(* Every Supervise.run call in a process gets an ordinal, counted identically
   in the coordinator and in each worker (both execute the same CLI code
   path).  A worker spawned for sweep [k] replays sweeps [< k] from the
   coordinator's combined journal — dependent sweeps (calibration -> points)
   capture earlier results in their closures, so the replay must reproduce
   them — and serves cells for sweep [k] itself. *)
let sweep_counter = ref 0

let rm_rf_shallow dir =
  match Sys.readdir dir with
  | names ->
    Array.iter
      (fun n ->
        let p = Filename.concat dir n in
        if Sys.is_directory p then begin
          (match Sys.readdir p with
          | inner ->
            Array.iter
              (fun m -> try Sys.remove (Filename.concat p m) with Sys_error _ -> ())
              inner
          | exception Sys_error _ -> ());
          try Unix.rmdir p with Unix.Unix_error _ -> ()
        end
        else try Sys.remove p with Sys_error _ -> ())
      names;
    (try Unix.rmdir dir with Unix.Unix_error _ -> ())
  | exception Sys_error _ -> ()

let scratch_dir =
  lazy
    (let d =
       Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "pv-procpool-%d" (Unix.getpid ()))
     in
     (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
     at_exit (fun () -> rm_rf_shallow d);
     d)

let combined_journal () = Filename.concat (Lazy.force scratch_dir) "combined.journal"

let fuel_for config index =
  (* attempt 0 suffices: livelock decisions are attempt-independent in
     seeded plans, and a planned flaky livelock makes little sense. *)
  match Fault.decide config.fault ~index ~attempt:0 with
  | Some Fault.Livelock -> Some config.livelock_fuel
  | _ -> config.max_cycles

(* Worker role, earlier sweep: serve every cell from the combined journal.
   Failures of the original run come back as [None] rows, same as the
   coordinator saw them. *)
let replay_sweep (ctx : Procpool.ctx) (cells : 'a cell list) =
  let tbl : (string, 'a) Hashtbl.t =
    match ctx.Procpool.replay with
    | Some path -> Journal.load_table path
    | None -> Hashtbl.create 0
  in
  let restored = ref 0 in
  let results =
    List.map
      (fun (c : 'a cell) ->
        match Hashtbl.find_opt tbl c.key with
        | Some v ->
          incr restored;
          (c.key, Some v)
        | None -> (c.key, None))
      cells
  in
  {
    results;
    failures = [];
    restored = !restored;
    cached = 0;
    deduped = 0;
    executed = 0;
  }

(* Worker role, target sweep: serve RUN commands until FIN, then leave the
   process — continuing the CLI past this sweep would re-run later sweeps
   as a bogus coordinator.  Cells are addressed by key (stable across
   processes); the index in each command is the cell's position in the
   *coordinator's* runnable list and exists only to key fault decisions. *)
let serve_worker (ctx : Procpool.ctx) config (cells : 'a cell list) : 'b =
  let by_key : (string, 'a cell) Hashtbl.t = Hashtbl.create (List.length cells) in
  List.iter (fun (c : 'a cell) -> Hashtbl.replace by_key c.key c) cells;
  let writer = Journal.open_writer ctx.Procpool.journal in
  let classify_fail e =
    Procpool.Fail
      {
        transient = Pool.default_classify e = Pool.Transient;
        reason = Printexc.to_string e;
      }
  in
  let execute ~index (c : 'a cell) =
    match
      match (config.cache, c.cache) with
      | Some rc, Some desc ->
        (* Two-phase commit through the shared cache: claim the lease,
           compute, store via atomic rename, release.  Racing workers (in
           this run or a concurrent one) dedup instead of double-computing. *)
        fst
          (Rescache.compute_through rc ~key:desc (fun () ->
               c.run ~fuel:(fuel_for config index)))
      | _ -> c.run ~fuel:(fuel_for config index)
    with
    | v ->
      Journal.append writer ~key:c.key v;
      Procpool.Done
    | exception e -> classify_fail e
  in
  let handle ~index ~attempt ~key =
    match Hashtbl.find_opt by_key key with
    | None ->
      Procpool.Fail
        { transient = false; reason = Printf.sprintf "unknown cell key %S" key }
    | Some c -> (
      match Fault.decide config.fault ~index ~attempt with
      | Some Fault.Kill ->
        (* Real process death, mid-append: compute (burning the same work a
           genuine mid-cell kill would), write a deliberately torn journal
           record, and SIGKILL ourselves.  The coordinator reaps the corpse,
           finds no committed record, and retries on a respawned worker —
           whose open_writer quarantines the torn bytes. *)
        let v = c.run ~fuel:(fuel_for config index) in
        Journal.append_torn writer ~key:c.key v;
        Unix.kill (Unix.getpid ()) Sys.sigkill;
        assert false
      | Some Fault.Crash -> classify_fail (Fault.Crashed { index; attempt })
      | Some Fault.Poison ->
        (match c.run ~fuel:(fuel_for config index) with
        | _ -> ()
        | exception _ -> ());
        classify_fail (Fault.Poisoned { index; attempt })
      | Some Fault.Slow ->
        Fault.spin ();
        execute ~index c
      | Some Fault.Livelock | None -> execute ~index c)
  in
  Procpool.serve ctx ~handle;
  Journal.close writer;
  exit 0

(* Coordinator role: run the runnable cells on the process pool instead of
   the in-process domain pool, then lift worker-journal values back into
   Pool.outcome records so everything downstream (checkpointing, result
   assembly, failure reports) is shared with the single-process path. *)
let run_procpool config ~ordinal (runnable : 'a cell list) : 'a Pool.outcome list =
  let scratch =
    let d =
      Filename.concat (Lazy.force scratch_dir) (Printf.sprintf "sweep-%d" ordinal)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d
  in
  let combined = combined_journal () in
  let replay = if Sys.file_exists combined then Some combined else None in
  let keys = Array.of_list (List.map (fun (c : 'a cell) -> c.key) runnable) in
  let outs, journals =
    Procpool.run_jobs ~workers:config.workers ~respawns ~retries:config.retries
      ~scratch
      ~spawn:(Procpool.reexec_spawner ~sweep:ordinal ~replay)
      ~keys ()
  in
  let values : (string, 'a) Hashtbl.t = Hashtbl.create (Array.length keys) in
  List.iter
    (fun j ->
      List.iter (fun (k, v) -> Hashtbl.replace values k v) (Journal.load j))
    journals;
  let lift i (c : 'a cell) : 'a Pool.outcome =
    match outs.(i) with
    | Procpool.Completed { attempts } -> (
      match Hashtbl.find_opt values c.key with
      | Some v -> { Pool.result = Ok v; attempts; elapsed = 0.0 }
      | None ->
        {
          Pool.result =
            Error
              {
                Pool.exn =
                  Procpool.Worker_failure
                    (Printf.sprintf "completed cell %S missing from worker journals"
                       c.key);
                backtrace = Printexc.get_callstack 0;
                classification = Pool.Permanent;
              };
          attempts;
          elapsed = 0.0;
        })
    | Procpool.Failed { attempts; transient; reason } ->
      {
        Pool.result =
          Error
            {
              Pool.exn = Procpool.Worker_failure reason;
              backtrace = Printexc.get_callstack 0;
              classification = (if transient then Pool.Transient else Pool.Permanent);
            };
        attempts;
        elapsed = 0.0;
      }
  in
  List.mapi lift runnable

let run_coordinator ~config ~ordinal (cells : 'a cell list) =
  let keys = List.map (fun (c : 'a cell) -> c.key) cells in
  let distinct = List.sort_uniq compare keys in
  if List.length distinct <> List.length keys then
    invalid_arg "Supervise.run: duplicate cell keys";
  let restored_tbl =
    match config.checkpoint with
    | Some path when config.resume -> Journal.load_table path
    | _ -> Hashtbl.create 0
  in
  let todo = List.filter (fun (c : 'a cell) -> not (Hashtbl.mem restored_tbl c.key)) cells in
  (* Result-cache hits: consulted before the pool, so a hit skips fault
     injection, retries and livelock fuel entirely — the cell never becomes
     pool work.  Declaration order of the lookups keeps the cache's own
     hit/miss counters deterministic for any [jobs]. *)
  let cached_tbl = Hashtbl.create 16 in
  (match config.cache with
  | None -> ()
  | Some rc ->
    List.iter
      (fun (c : 'a cell) ->
        match c.cache with
        | None -> ()
        | Some desc -> (
          match Rescache.find rc ~key:desc with
          | Some v -> Hashtbl.replace cached_tbl c.key v
          | None -> ()))
      todo);
  let todo = List.filter (fun (c : 'a cell) -> not (Hashtbl.mem cached_tbl c.key)) todo in
  (* In-run dedup: two cells declaring the same canonical descriptor are the
     same simulation; the first becomes the representative, later ones alias
     its outcome.  Active even without a cache directory. *)
  let rep_of_desc = Hashtbl.create 16 in
  let alias = Hashtbl.create 16 in
  let runnable =
    List.filter
      (fun (c : 'a cell) ->
        match c.cache with
        | None -> true
        | Some desc -> (
          match Hashtbl.find_opt rep_of_desc desc with
          | None ->
            Hashtbl.add rep_of_desc desc c.key;
            true
          | Some rep ->
            Hashtbl.replace alias c.key rep;
            false))
      todo
  in
  let runnable_arr = Array.of_list runnable in
  let writer = Option.map Journal.open_writer config.checkpoint in
  let on_outcome index (o : _ Pool.outcome) =
    match o.Pool.result with
    | Ok v ->
      let c = runnable_arr.(index) in
      Option.iter (fun w -> Journal.append w ~key:c.key v) writer;
      (match (config.cache, c.cache) with
      | Some rc, Some desc -> Rescache.store rc ~key:desc v
      | _ -> ())
    | Error _ -> ()
  in
  let use_procpool =
    config.workers > 1
    && runnable <> []
    &&
    if Procpool.reexec_available () then true
    else begin
      Printf.eprintf
        "supervise: --workers %d requested but no re-exec argv is registered \
         (library caller?); falling back to the in-process pool\n%!"
        config.workers;
      false
    end
  in
  let outcomes =
    Fun.protect
      ~finally:(fun () -> Option.iter Journal.close writer)
      (fun () ->
        let outcomes =
          if use_procpool then begin
            let outcomes = run_procpool config ~ordinal runnable in
            (* Fold every worker journal into the user checkpoint (raw frame
               merge), so a later --resume has one authoritative source just
               like the single-process path.  Values were cached worker-side
               through the lease protocol, so no store here. *)
            Option.iter
              (fun w ->
                let scratch =
                  Filename.concat (Lazy.force scratch_dir)
                    (Printf.sprintf "sweep-%d" ordinal)
                in
                match Sys.readdir scratch with
                | names ->
                  Array.to_list names |> List.sort compare
                  |> List.iter (fun n ->
                         if Filename.check_suffix n ".journal" then
                           ignore
                             (Journal.merge_into w (Filename.concat scratch n)))
                | exception Sys_error _ -> ())
              writer;
            outcomes
          end
          else
            Pool.with_pool ~jobs:config.jobs (fun p ->
                Pool.map_results ~retries:config.retries ~fault:config.fault
                  ~on_outcome p
                  (fun (i, c) -> c.run ~fuel:(fuel_for config i))
                  (List.mapi (fun i c -> (i, c)) runnable))
        in
        (* Cache hits and dedup aliases still belong in the checkpoint: a
           later --resume must serve them without needing the cache. *)
        Option.iter
          (fun w ->
            let ok = Hashtbl.create 16 in
            List.iter2
              (fun (c : 'a cell) (o : _ Pool.outcome) ->
                match o.Pool.result with
                | Ok v -> Hashtbl.replace ok c.key v
                | Error _ -> ())
              runnable outcomes;
            List.iter
              (fun (c : 'a cell) ->
                match Hashtbl.find_opt cached_tbl c.key with
                | Some v -> Journal.append w ~key:c.key v
                | None -> (
                  match Hashtbl.find_opt alias c.key with
                  | None -> ()
                  | Some rep -> (
                    match Hashtbl.find_opt ok rep with
                    | Some v -> Journal.append w ~key:c.key v
                    | None -> ())))
              cells)
          writer;
        outcomes)
  in
  let ran = Hashtbl.create (List.length runnable) in
  List.iter2 (fun (c : 'a cell) o -> Hashtbl.replace ran c.key o) runnable outcomes;
  let restored = ref 0 and cached = ref 0 and deduped = ref 0 in
  let results, failures =
    List.fold_left
      (fun (res, fails) (c : 'a cell) ->
        match Hashtbl.find_opt restored_tbl c.key with
        | Some v ->
          incr restored;
          ((c.key, Some v) :: res, fails)
        | None -> (
          match Hashtbl.find_opt cached_tbl c.key with
          | Some v ->
            incr cached;
            ((c.key, Some v) :: res, fails)
          | None -> (
            let report_key, own = match Hashtbl.find_opt alias c.key with
              | Some rep -> (rep, false)
              | None -> (c.key, true)
            in
            if not own then incr deduped;
            let o = Hashtbl.find ran report_key in
            match o.Pool.result with
            | Ok v -> ((c.key, Some v) :: res, fails)
            | Error e ->
              let f =
                {
                  key = c.key;
                  attempts = o.Pool.attempts;
                  elapsed = o.Pool.elapsed;
                  reason = Printexc.to_string e.Pool.exn;
                }
              in
              ((c.key, None) :: res, f :: fails))))
      ([], []) cells
  in
  let sweep =
    {
      results = List.rev results;
      failures = List.rev failures;
      restored = !restored;
      cached = !cached;
      deduped = !deduped;
      executed = List.length runnable;
    }
  in
  (* Multi-process mode: record this sweep's values (whatever their
     provenance) in the combined journal, so workers spawned for a *later*
     sweep can replay this one — dependent sweeps capture these results in
     their cell closures. *)
  if config.workers > 1 && Procpool.reexec_available () then begin
    let w = Journal.open_writer (combined_journal ()) in
    Fun.protect
      ~finally:(fun () -> Journal.close w)
      (fun () ->
        List.iter
          (fun (k, v) -> match v with Some v -> Journal.append w ~key:k v | None -> ())
          sweep.results)
  end;
  sweep

let run ?(config = default) (cells : 'a cell list) =
  let ordinal = !sweep_counter in
  incr sweep_counter;
  match Procpool.worker_ctx () with
  | Some ctx when ordinal < ctx.Procpool.sweep -> replay_sweep ctx cells
  | Some ctx -> serve_worker ctx config cells (* never returns: exits 0 *)
  | None -> run_coordinator ~config ~ordinal cells

let failed s = List.length s.failures

let exit_code sweeps = if List.exists (fun s -> failed s > 0) sweeps then 1 else 0

(* --- telemetry export ------------------------------------------------- *)

module Metrics = Pv_util.Metrics

type exported = {
  label : string;
  cells : (string * Metrics.snapshot option) list;
  summary : Metrics.snapshot;
}

(* The sweep-level registry: cell counts plus a log2 histogram of per-cell
   cycle costs read back from each cell's own snapshot.  [elapsed] is the
   only wall-clock datum in an export; it renders on its own JSON line so
   byte-identity checks can strip it with grep.  Provenance counts
   (restored/cached/deduped/executed) deliberately do NOT appear here: they
   differ between a cold and a warm run of the same sweep, and the metrics
   export must stay byte-identical; they live in the stderr {!report}. *)
let summary_snapshot ?elapsed cells =
  let reg = Metrics.create () in
  Metrics.set_int reg "supervise.cells" (List.length cells);
  Metrics.set_int reg "supervise.failed"
    (List.length (List.filter (fun (_, s) -> s = None) cells));
  Metrics.declare_hist reg "supervise.cell_cycles";
  List.iter
    (fun (_, snap) ->
      match snap with
      | Some s -> (
        match Metrics.find s "pipeline.cycles" with
        | Some (Metrics.Int c) -> Metrics.observe reg "supervise.cell_cycles" c
        | Some _ | None -> ())
      | None -> ())
    cells;
  Option.iter (fun e -> Metrics.set_float reg "elapsed_s" e) elapsed;
  Metrics.snapshot reg

let export ?elapsed ~metrics_of ~label s =
  let cells = List.map (fun (k, v) -> (k, Option.map metrics_of v)) s.results in
  { label; cells; summary = summary_snapshot ?elapsed cells }

let render_json exports =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"sweeps\": {\n";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf (Printf.sprintf "    %s: {\n" (Metrics.json_string e.label));
      Buffer.add_string buf "      \"summary\": ";
      Buffer.add_string buf (Metrics.snapshot_to_json ~indent:8 e.summary);
      Buffer.add_string buf ",\n      \"cells\": {\n";
      List.iteri
        (fun j (k, snap) ->
          if j > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (Printf.sprintf "        %s: " (Metrics.json_string k));
          match snap with
          | None -> Buffer.add_string buf "null"
          | Some s -> Buffer.add_string buf (Metrics.snapshot_to_json ~indent:10 s))
        e.cells;
      Buffer.add_string buf "\n      }\n    }")
    exports;
  Buffer.add_string buf "\n  }\n}\n";
  Buffer.contents buf

let write_json ~file exports =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (render_json exports))

let report ?(out = stderr) ~label s =
  Printf.fprintf out
    "%s: %d cells, %d restored from checkpoint, %d CACHED, %d deduped, %d executed, %d failed\n"
    label
    (List.length s.results)
    s.restored s.cached s.deduped s.executed (failed s);
  List.iter
    (fun f ->
      Printf.fprintf out "  FAILED %s after %d attempt%s (%.2fs): %s\n" f.key f.attempts
        (if f.attempts = 1 then "" else "s")
        f.elapsed f.reason)
    s.failures;
  flush out
