(* Supervised sweep driver: one attempt function (fault realization and the
   transient/permanent split) made in the calling process at [jobs = 1] and
   in worker processes above it, and Rescache glued into the experiment
   layer's unit of work (the keyed cell).

   Livelock faults are realized here: a livelocked simulation cannot be
   faked by an exception, so the supervisor starves the cell's cycle fuel
   and lets the pipeline's max_cycles watchdog produce the structured
   Machine.Run_timeout. *)

module Fault = Pv_util.Fault
module Rescache = Pv_util.Rescache
module Procpool = Pv_util.Procpool

type 'a cell = { key : string; cache : string option; run : fuel:int option -> 'a }

let cell ?cache key run = { key; cache; run }

type failure = { key : string; attempts : int; reason : string }

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
  checkpoint : string option;
  resume : bool;
  cache : Rescache.t option;
}

let default =
  {
    jobs = 1;
    retries = 0;
    fault = Fault.none;
    max_cycles = None;
    checkpoint = None;
    resume = false;
    cache = None;
  }

let resume_preflight dir =
  if not (Sys.file_exists dir) then Error (Printf.sprintf "checkpoint %S does not exist" dir)
  else if not (Sys.is_directory dir) then
    Error (Printf.sprintf "checkpoint %S is not a directory" dir)
  else
    match Rescache.entries (Rescache.open_dir dir) with
    | 0 -> Error (Printf.sprintf "checkpoint %S holds no entries" dir)
    | n -> Ok n

(* The cycle budget of a Livelock-faulted cell: starved, so the pipeline
   watchdog fires at once. *)
let starved_fuel = 5_000

(* One attempt at runnable cell [index] under the fault plan: the cell's
   value, or whether the failure is transient and its reason.  The two
   paths differ only in [Kill]: a worker process computes the cell and
   then dies for real, before it sends the value; in the calling process
   the attempt is lost without running. *)
let attempt_cell config ~in_worker ~index ~attempt (c : 'a cell) =
  let run fuel = match c.run ~fuel with v -> Ok v | exception e -> Error e in
  let outcome =
    match Fault.decide config.fault ~index ~attempt with
    | None -> run config.max_cycles
    | Some Fault.Slow ->
      Fault.spin ();
      run config.max_cycles
    | Some Fault.Livelock -> run (Some starved_fuel)
    | Some Fault.Crash -> Error (Fault.Crashed { index; attempt })
    | Some Fault.Poison ->
      (* The cell "completes", burning the same work, but its value is
         rejected as corrupt. *)
      ignore (run config.max_cycles);
      Error (Fault.Poisoned { index; attempt })
    | Some Fault.Kill when in_worker ->
      ignore (run config.max_cycles);
      Unix.kill (Unix.getpid ()) Sys.sigkill;
      assert false
    | Some Fault.Kill -> Error (Fault.Killed { index; attempt })
  in
  Result.map_error
    (fun e ->
      let transient = match e with Fault.Crashed _ | Fault.Killed _ -> true | _ -> false in
      (transient, Printexc.to_string e))
    outcome

(* Each runnable cell's value or failure reason, with the attempts made.
   At [jobs = 1] the cells run here, in order, each retrying transient
   failures at once and storing its value as soon as it has one: the
   serial reference.  Above it, forked worker processes, which already
   hold the cells and everything their closures captured (upstream
   sweeps' results included), make the same attempts, and each value is
   stored here as its result frame arrives.  So a crash or Ctrl-C loses at
   most in-flight cells either way.  At most 128 workers start, whatever
   [jobs] asks for; an empty remainder forks none. *)
let execute config ~store runnable =
  if config.jobs <= 1 then
    List.mapi
      (fun index c ->
        let rec go n =
          match attempt_cell config ~in_worker:false ~index ~attempt:n c with
          | Ok v ->
            store c v;
            (Ok v, n + 1)
          | Error (true, _) when n < config.retries -> go (n + 1)
          | Error (_, reason) -> (Error reason, n + 1)
        in
        go 0)
      runnable
  else
    let cells = Array.of_list runnable in
    Array.to_list
      (Procpool.map ~workers:(min config.jobs 128) ~retries:config.retries
         ~attempt:(fun ~index ~attempt ->
           attempt_cell config ~in_worker:true ~index ~attempt cells.(index))
         ~on_value:(fun i v -> store cells.(i) v)
         (Array.length cells))

let run ?(config = default) (cells : 'a cell list) =
  let keys = List.map (fun (c : 'a cell) -> c.key) cells in
  let distinct = List.sort_uniq compare keys in
  if List.length distinct <> List.length keys then
    invalid_arg "Supervise.run: duplicate cell keys";
  let checkpoint = Option.map Rescache.open_dir config.checkpoint in
  (* One lookup per cell with a descriptor, in declaration order so the
     stores' hit/miss counters are deterministic for any [jobs]: the
     checkpoint under [resume], then the cache.  A served cell skips fault
     injection, retries and livelock fuel entirely — it is never executed. *)
  let find store desc = Option.bind store (fun s -> Rescache.find s ~key:desc) in
  let served = Hashtbl.create 16 in
  List.iter
    (fun (c : 'a cell) ->
      Option.iter
        (fun desc ->
          match if config.resume then find checkpoint desc else None with
          | Some v -> Hashtbl.replace served c.key (`Restored, v)
          | None ->
            Option.iter
              (fun v -> Hashtbl.replace served c.key (`Cached, v))
              (find config.cache desc))
        c.cache)
    cells;
  (* In-run dedup: two cells declaring the same canonical descriptor are the
     same simulation; the first becomes the representative, later ones alias
     its outcome.  Active even without a store. *)
  let rep_of_desc = Hashtbl.create 16 in
  let alias = Hashtbl.create 16 in
  let runnable =
    List.filter
      (fun (c : 'a cell) ->
        (not (Hashtbl.mem served c.key))
        &&
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
      cells
  in
  (* A finished value is stored under its descriptor in every configured
     store; aliases share the descriptor, so they need no entry of their
     own.  A failed store never fails the cell. *)
  let stores = List.filter_map Fun.id [ checkpoint; config.cache ] in
  let store (c : 'a cell) v =
    Option.iter (fun desc -> try Rescache.store_all stores ~key:desc v with _ -> ()) c.cache
  in
  let outcomes = execute config ~store runnable in
  let ran = Hashtbl.create (List.length runnable) in
  List.iter2 (fun (c : 'a cell) o -> Hashtbl.replace ran c.key o) runnable outcomes;
  let restored = ref 0 and cached = ref 0 and deduped = ref 0 in
  let results, failures =
    List.fold_left
      (fun (res, fails) (c : 'a cell) ->
        match Hashtbl.find_opt served c.key with
        | Some (how, v) ->
          incr (if how = `Restored then restored else cached);
          ((c.key, Some v) :: res, fails)
        | None -> (
          let report_key =
            match Hashtbl.find_opt alias c.key with
            | Some rep ->
              incr deduped;
              rep
            | None -> c.key
          in
          match Hashtbl.find ran report_key with
          | Ok v, _ -> ((c.key, Some v) :: res, fails)
          | Error reason, attempts ->
            ((c.key, None) :: res, { key = c.key; attempts; reason } :: fails)))
      ([], []) cells
  in
  {
    results = List.rev results;
    failures = List.rev failures;
    restored = !restored;
    cached = !cached;
    deduped = !deduped;
    executed = List.length runnable;
  }

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
      Printf.fprintf out "  FAILED %s after %d attempt%s: %s\n" f.key f.attempts
        (if f.attempts = 1 then "" else "s")
        f.reason)
    s.failures;
  flush out
