(* The persistent content-addressed result cache: digest stability, store/
   find round trips, salt invalidation, corruption recovery, and the
   cold-run/warm-run byte-identity contract through supervised sweeps. *)

module Rescache = Pv_util.Rescache
module Supervise = Pv_experiments.Supervise
module Perf = Pv_experiments.Perf
module Perf_report = Pv_experiments.Perf_report
module Schemes = Pv_experiments.Schemes
module Loadsweep = Pv_experiments.Loadsweep
module Tab = Pv_util.Tab
module Apps = Pv_workloads.Apps
module Lebench = Pv_workloads.Lebench

let check = Alcotest.check

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_cache_dir f =
  let dir = Filename.temp_file "pv_rescache" ".d" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir) (fun () -> f dir)

let entries dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort compare

(* --- the digest --------------------------------------------------------- *)

let test_digest_stability () =
  (* FNV-1a 64 known-answer vectors: entry file names must never drift, or
     every existing cache silently goes cold. *)
  check Alcotest.string "empty string = offset basis" "cbf29ce484222325"
    (Pv_util.Checksum.digest_hex "");
  check Alcotest.string "\"a\"" "af63dc4c8601ec8c" (Pv_util.Checksum.digest_hex "a");
  check Alcotest.string "\"foobar\"" "85944171f73967e8" (Pv_util.Checksum.digest_hex "foobar");
  check Alcotest.string "repeatable" (Pv_util.Checksum.digest_hex "perf/lebench|select")
    (Pv_util.Checksum.digest_hex "perf/lebench|select");
  Alcotest.(check bool) "distinct keys, distinct names" true
    (Pv_util.Checksum.digest_hex "k1" <> Pv_util.Checksum.digest_hex "k2")

(* --- store / find round trips ------------------------------------------- *)

let test_roundtrip () =
  with_cache_dir (fun dir ->
      let c = Rescache.open_dir dir in
      check Alcotest.(option int) "cold miss" None (Rescache.find c ~key:"k1");
      Rescache.store c ~key:"k1" 42;
      check Alcotest.(option int) "hit after store" (Some 42) (Rescache.find c ~key:"k1");
      check Alcotest.(option int) "other key still misses" None (Rescache.find c ~key:"k2");
      let s = Test_procpool.counters c in
      check Alcotest.int "hits" 1 s.Test_procpool.hits;
      check Alcotest.int "misses" 2 s.Test_procpool.misses;
      check Alcotest.int "writes" 1 s.Test_procpool.writes;
      check Alcotest.int "nothing corrupt" 0 s.Test_procpool.corrupt_dropped;
      (* persistence: a fresh handle on the same directory serves the entry *)
      let c2 = Rescache.open_dir dir in
      check Alcotest.(option int) "hit across handles" (Some 42) (Rescache.find c2 ~key:"k1"))

let test_store_replaces () =
  with_cache_dir (fun dir ->
      let c = Rescache.open_dir dir in
      Rescache.store c ~key:"k" "old";
      Rescache.store c ~key:"k" "new";
      check Alcotest.(option string) "last store wins" (Some "new") (Rescache.find c ~key:"k");
      check Alcotest.int "one entry file" 1 (List.length (entries dir)))

let test_salt_invalidation () =
  (* An entry at the path [find] reads whose stored salt is not the
     store's (written by another code salt or format version) is dropped
     as corrupt, never served. *)
  with_cache_dir (fun dir ->
      let c = Rescache.open_dir dir in
      Rescache.store c ~key:"k" 1;
      let file = Filename.concat dir (List.hd (entries dir)) in
      let body = In_channel.with_open_bin file In_channel.input_all in
      let field = "\"salt\": \"" in
      let rec find i = if String.sub body i (String.length field) = field then i else find (i + 1) in
      let start = find 0 + String.length field in
      let stop = String.index_from body start '"' in
      Out_channel.with_open_bin file (fun ch ->
          Out_channel.output_string ch
            (String.sub body 0 start ^ "v1|another-code-salt|"
            ^ String.sub body stop (String.length body - stop)));
      check Alcotest.(option int) "other salt misses" None (Rescache.find c ~key:"k");
      check Alcotest.int "counted as corrupt" 1 (Test_procpool.counters c).Test_procpool.corrupt_dropped;
      check Alcotest.int "stale entry deleted" 0 (List.length (entries dir)))

let test_store_all () =
  (* Stores share one entry file through a hard link; replacing the entry
     in one leaves the other untouched. *)
  with_cache_dir (fun dir ->
      let sub name = Filename.concat dir name in
      let a = Rescache.open_dir (sub "a") and b = Rescache.open_dir (sub "b") in
      Rescache.store_all [ a; b ] ~key:"k" 1;
      List.iter
        (fun (name, t) ->
          check Alcotest.(option int) (name ^ " serves the value") (Some 1) (Rescache.find t ~key:"k");
          check Alcotest.int (name ^ " counts the write") 1 (Test_procpool.counters t).Test_procpool.writes)
        [ ("a", a); ("b", b) ];
      let stat name = Unix.stat (Filename.concat (sub name) (List.hd (entries (sub name)))) in
      check Alcotest.int "a and b share one inode" (stat "a").Unix.st_ino (stat "b").Unix.st_ino;
      Rescache.store a ~key:"k" 2;
      check Alcotest.(option int) "a replaced" (Some 2) (Rescache.find a ~key:"k");
      check Alcotest.(option int) "b unchanged" (Some 1) (Rescache.find b ~key:"k"))

(* --- corruption recovery ------------------------------------------------ *)

let only_entry dir =
  match entries dir with
  | [ f ] -> Filename.concat dir f
  | es -> Alcotest.fail (Printf.sprintf "expected one cache entry, found %d" (List.length es))

let test_truncated_entry_recomputed () =
  with_cache_dir (fun dir ->
      let c = Rescache.open_dir dir in
      Rescache.store c ~key:"k" (3, "payload");
      let file = only_entry dir in
      let body = In_channel.with_open_bin file In_channel.input_all in
      Out_channel.with_open_bin file (fun ch ->
          Out_channel.output_string ch (String.sub body 0 17));
      check Alcotest.(option (pair int string)) "truncated entry is a miss" None
        (Rescache.find c ~key:"k");
      check Alcotest.int "counted as corrupt" 1 (Test_procpool.counters c).Test_procpool.corrupt_dropped;
      check Alcotest.int "damaged file deleted" 0 (List.length (entries dir));
      (* the recompute path: a fresh store makes the key hit again *)
      Rescache.store c ~key:"k" (3, "payload");
      check Alcotest.(option (pair int string)) "recomputed entry hits" (Some (3, "payload"))
        (Rescache.find c ~key:"k"))

let test_bitflipped_entry_recomputed () =
  with_cache_dir (fun dir ->
      let c = Rescache.open_dir dir in
      Rescache.store c ~key:"k" 99;
      let file = only_entry dir in
      let body = In_channel.with_open_bin file In_channel.input_all in
      (* flip one nibble of the hex payload: the checksum must catch it *)
      let marker = "\"payload_hex\": \"" in
      let rec find i =
        if i + String.length marker > String.length body then
          Alcotest.fail "payload_hex field not found"
        else if String.sub body i (String.length marker) = marker then
          i + String.length marker
        else find (i + 1)
      in
      let pos = find 0 in
      let flipped = Bytes.of_string body in
      Bytes.set flipped pos (if Bytes.get flipped pos = '0' then '1' else '0');
      Out_channel.with_open_bin file (fun ch ->
          Out_channel.output_bytes ch flipped);
      check Alcotest.(option int) "bit-flipped entry is a miss, not a wrong value" None
        (Rescache.find c ~key:"k");
      check Alcotest.int "counted as corrupt" 1 (Test_procpool.counters c).Test_procpool.corrupt_dropped;
      Rescache.store c ~key:"k" 99;
      check Alcotest.(option int) "recomputed entry hits" (Some 99) (Rescache.find c ~key:"k"))

(* --- supervised sweeps: dedup, CACHED, checkpoint ------------------------ *)

let test_dedup_runs_once () =
  (* Three cells declaring the same canonical descriptor are one simulation:
     the representative runs, the rest alias its value — with or without a
     cache directory configured. *)
  (* At -j 4 the cell runs in a worker process, so each execution appends
     a byte to a file rather than bumping a counter here. *)
  let log = Filename.temp_file "pv_dedup" ".log" in
  Fun.protect ~finally:(fun () -> Sys.remove log) @@ fun () ->
  let cell k =
    Supervise.cell ~cache:"dup|desc" k (fun ~fuel:_ ->
        Out_channel.with_open_gen [ Open_append ] 0o644 log (fun oc -> output_char oc 'x');
        7)
  in
  let sweep =
    Supervise.run ~config:{ Supervise.default with jobs = 4 } [ cell "a"; cell "b"; cell "c" ]
  in
  check Alcotest.int "one execution" 1
    (String.length (In_channel.with_open_bin log In_channel.input_all));
  check Alcotest.int "executed" 1 sweep.Supervise.executed;
  check Alcotest.int "deduped" 2 sweep.Supervise.deduped;
  check
    Alcotest.(list (pair string (option int)))
    "every alias reports the representative's value"
    [ ("a", Some 7); ("b", Some 7); ("c", Some 7) ]
    sweep.Supervise.results

let test_sweep_cold_then_warm () =
  with_cache_dir (fun dir ->
      let runs = Atomic.make 0 in
      let cells () =
        List.init 3 (fun i ->
            Supervise.cell
              ~cache:(Printf.sprintf "sq|seed=%d" i)
              (Printf.sprintf "sq/%d" i)
              (fun ~fuel:_ ->
                Atomic.incr runs;
                i * i))
      in
      let run () =
        Supervise.run
          ~config:{ Supervise.default with cache = Some (Rescache.open_dir dir) }
          (cells ())
      in
      let cold = run () in
      check Alcotest.int "cold run executes everything" 3 cold.Supervise.executed;
      check Alcotest.int "cold run hits nothing" 0 cold.Supervise.cached;
      let warm = run () in
      check Alcotest.int "warm run executes nothing" 0 warm.Supervise.executed;
      check Alcotest.int "warm run all CACHED" 3 warm.Supervise.cached;
      check Alcotest.int "simulations ran once in total" 3 (Atomic.get runs);
      Alcotest.(check bool) "identical results" true
        (cold.Supervise.results = warm.Supervise.results);
      (* provenance shows up in the stderr report, not in the results *)
      let report_file = Filename.temp_file "pv_rescache" ".report" in
      Fun.protect
        ~finally:(fun () -> Sys.remove report_file)
        (fun () ->
          let out = open_out report_file in
          Supervise.report ~out ~label:"sq" warm;
          close_out out;
          let text = In_channel.with_open_bin report_file In_channel.input_all in
          Alcotest.(check bool)
            (Printf.sprintf "report names the cache hits: %s" (String.trim text))
            true
            (contains ~sub:"3 CACHED" text && contains ~sub:"0 executed" text)))

let test_resume_without_cache_reruns_hits () =
  (* Cache hits are not copied into the checkpoint: a resume without the
     cache runs them again, to the same values, and stores them in the
     checkpoint this time. *)
  with_cache_dir (fun dir ->
      let ckpt = Filename.concat dir "checkpoint" in
      let runs = Atomic.make 0 in
      let cells () =
        List.init 2 (fun i ->
            Supervise.cell
              ~cache:(Printf.sprintf "jc|%d" i)
              (Printf.sprintf "jc/%d" i)
              (fun ~fuel:_ ->
                Atomic.incr runs;
                i + 10))
      in
      let cache () = Some (Rescache.open_dir (Filename.concat dir "cache")) in
      ignore (Supervise.run ~config:{ Supervise.default with cache = cache () } (cells ()));
      let warm =
        Supervise.run
          ~config:{ Supervise.default with cache = cache (); checkpoint = Some ckpt }
          (cells ())
      in
      check Alcotest.int "warm run all CACHED" 2 warm.Supervise.cached;
      check Alcotest.int "hits are not checkpointed" 0
        (Rescache.entries (Rescache.open_dir ckpt));
      let resume () =
        Supervise.run
          ~config:{ Supervise.default with checkpoint = Some ckpt; resume = true }
          (cells ())
      in
      let first = resume () in
      check Alcotest.int "resume without the cache restores nothing" 0
        first.Supervise.restored;
      check Alcotest.int "it executes the former hits" 2 first.Supervise.executed;
      check Alcotest.int "simulations: cold run plus resume" 4 (Atomic.get runs);
      Alcotest.(check bool) "same results" true
        (warm.Supervise.results = first.Supervise.results);
      check Alcotest.int "a second resume restores them" 2 (resume ()).Supervise.restored)

(* --- the acceptance contract: cold and warm runs are byte-identical ----- *)

let test_perf_cold_warm_byte_identical () =
  (* One real perf config, cold at -j1 then warm at -j4: the warm run must
     simulate nothing and both the figure and the metrics JSON must be
     byte-identical — cache keys are stable across worker counts. *)
  with_cache_dir (fun dir ->
      let tests = [ Lebench.find "select" ] in
      let variants = [ Schemes.unsafe; Schemes.perspective ] in
      let labels = List.map (fun v -> v.Schemes.label) variants in
      let names = List.map (fun (t : Lebench.test) -> t.Lebench.name) tests in
      let width = List.length variants in
      let cells () = Perf.lebench_cells ~scale:0.2 ~tests ~variants () in
      let render sweep =
        Tab.to_string
          (Perf_report.fig_lebench_partial ~labels (Perf.matrix_of_sweep ~names ~width sweep))
      in
      let json sweep =
        Test_procpool.metrics_json
          [ Supervise.export ~metrics_of:(fun r -> r.Perf.metrics) ~label:"lebench" sweep ]
      in
      let cold =
        Supervise.run
          ~config:{ Supervise.default with jobs = 1; cache = Some (Rescache.open_dir dir) }
          (cells ())
      in
      check Alcotest.int "cold: everything executed" 2 cold.Supervise.executed;
      check Alcotest.int "cold: nothing cached" 0 cold.Supervise.cached;
      let rc = Rescache.open_dir dir in
      let warm =
        Supervise.run ~config:{ Supervise.default with jobs = 4; cache = Some rc } (cells ())
      in
      check Alcotest.int "warm: zero simulations" 0 warm.Supervise.executed;
      check Alcotest.int "warm: all CACHED" 2 warm.Supervise.cached;
      check Alcotest.int "warm handle saw two hits" 2 (Test_procpool.counters rc).Test_procpool.hits;
      check Alcotest.string "figure bytes: cold -j1 = warm -j4" (render cold) (render warm);
      check Alcotest.string "metrics JSON bytes: cold = warm" (json cold) (json warm))

let test_loadsweep_cold_warm_byte_identical () =
  (* The fig-9.3-tail path: both phases (service-cal and service points) are
     cacheable, so a warm run recalibrates nothing and reproduces the tables
     byte-for-byte. *)
  with_cache_dir (fun dir ->
      let apps = [ Apps.redis ] in
      let variants = [ Schemes.unsafe; Schemes.fence ] in
      let labels = List.map (fun v -> v.Schemes.label) variants in
      let loads = [ 0.5; 1.2 ] in
      let run jobs =
        Loadsweep.run
          ~config:{ Supervise.default with jobs; cache = Some (Rescache.open_dir dir) }
          ~points:2 ~requests:200 ~loads ~apps ~variants ()
      in
      let render (o : Loadsweep.outcome) =
        Tab.to_string
          (Loadsweep.table ~requests:200 ~apps ~labels ~loads o.Loadsweep.point_sweep)
      in
      let cold = run 2 in
      check Alcotest.int "cold: calibrations executed" 2
        cold.Loadsweep.cal_sweep.Supervise.executed;
      let warm = run 1 in
      check Alcotest.int "warm: calibrations all CACHED" 2
        warm.Loadsweep.cal_sweep.Supervise.cached;
      check Alcotest.int "warm: points all CACHED" 4 warm.Loadsweep.point_sweep.Supervise.cached;
      check Alcotest.int "warm: zero simulations" 0
        (warm.Loadsweep.cal_sweep.Supervise.executed
        + warm.Loadsweep.point_sweep.Supervise.executed);
      check Alcotest.string "load-latency table bytes: cold = warm" (render cold) (render warm);
      check Alcotest.string "metrics JSON bytes: cold = warm"
        (Test_procpool.metrics_json (Loadsweep.exports cold))
        (Test_procpool.metrics_json (Loadsweep.exports warm)))

let suite =
  [
    ( "rescache.digest",
      [ Alcotest.test_case "FNV-1a 64 known answers" `Quick test_digest_stability ] );
    ( "rescache.store",
      [
        Alcotest.test_case "store/find round-trip" `Quick test_roundtrip;
        Alcotest.test_case "store replaces" `Quick test_store_replaces;
        Alcotest.test_case "salt invalidation" `Quick test_salt_invalidation;
        Alcotest.test_case "store_all links equal salts" `Quick test_store_all;
      ] );
    ( "rescache.corruption",
      [
        Alcotest.test_case "truncated entry recomputed" `Quick test_truncated_entry_recomputed;
        Alcotest.test_case "bit-flipped entry recomputed" `Quick
          test_bitflipped_entry_recomputed;
      ] );
    ( "rescache.supervise",
      [
        Alcotest.test_case "in-run dedup runs once" `Quick test_dedup_runs_once;
        Alcotest.test_case "cold then warm sweep" `Quick test_sweep_cold_then_warm;
        Alcotest.test_case "resume without the cache re-runs hits" `Quick
          test_resume_without_cache_reruns_hits;
      ] );
    ( "rescache.acceptance",
      [
        Alcotest.test_case "perf: cold -j1 = warm -j4, zero simulation" `Slow
          test_perf_cold_warm_byte_identical;
        Alcotest.test_case "loadsweep: cold = warm, zero simulation" `Slow
          test_loadsweep_cold_warm_byte_identical;
      ] );
  ]
