(* Crash-safe multi-process execution: the result store's write-error
   accounting, the coordinator/worker pool itself (completion, recovery
   from killed workers, the retry budget, frames cut short or followed by a
   kill), and Supervise sweeps on worker processes; and the helpers other
   suites share: [in_child], which the tests that start domains run them
   in, and readers of what a store and a sweep print. *)

module Rescache = Pv_util.Rescache
module Procpool = Pv_util.Procpool
module Fault = Pv_util.Fault
module Supervise = Pv_experiments.Supervise

let check = Alcotest.check

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let temp_path prefix suffix =
  let p = Filename.temp_file prefix suffix in
  Sys.remove p;
  p

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_dir f =
  let dir = temp_path "pv_procpool" ".d" in
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir) (fun () -> f dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* [f ()] computed in a forked child and marshalled back.  A test that
   starts domains starts them here, since a process that has started one
   can fork no worker.  A child whose [f] raises sends nothing, and the
   read raises [End_of_file]. *)
let in_child (f : unit -> 'a) : 'a =
  let r, w = Unix.pipe () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let oc = Unix.out_channel_of_descr w in
    Unix._exit
      (match Marshal.to_channel oc (f ()) [] with
      | () ->
        close_out oc;
        0
      | exception _ -> 1)
  | pid ->
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    Fun.protect
      ~finally:(fun () ->
        close_in ic;
        ignore (Unix.waitpid [] pid))
      (fun () -> Marshal.from_channel ic)

(* A store's counters, read back from the line [--cache-stats] prints. *)
type counters = {
  hits : int;
  misses : int;
  writes : int;
  write_errors : int;
  corrupt_dropped : int;
}

let counters c =
  let path = Filename.temp_file "pv_report" ".txt" in
  Out_channel.with_open_bin path (fun oc -> Rescache.report ~out:oc c);
  let line = read_file path in
  Sys.remove path;
  Scanf.sscanf line "rescache: hits=%d misses=%d writes=%d write_errors=%d corrupt_dropped=%d"
    (fun hits misses writes write_errors corrupt_dropped ->
      { hits; misses; writes; write_errors; corrupt_dropped })

(* The [--metrics] document, as [Supervise.write_json] writes it. *)
let metrics_json exports =
  let path = Filename.temp_file "pv_metrics" ".json" in
  Supervise.write_json ~file:path exports;
  let s = read_file path in
  Sys.remove path;
  s

(* --- rescache: write errors ----------------------------------------------- *)

let test_write_errors_counted () =
  (* A cache that cannot write must degrade (count + warn), not raise and
     not pretend the store happened. *)
  with_dir (fun parent ->
      let dir = Filename.concat parent "cache" in
      let c = Rescache.open_dir dir in
      Rescache.store c ~key:"ok" 1;
      check Alcotest.int "healthy store counted" 1 (counters c).writes;
      (* break the cache root: replace the directory with a regular file, so
         the temp-file open fails with ENOTDIR even for root *)
      rm_rf dir;
      write_file dir "not a directory";
      Rescache.store c ~key:"fails" 2;
      Rescache.store c ~key:"fails2" 3;
      let s = counters c in
      check Alcotest.int "failed stores counted" 2 s.write_errors;
      check Alcotest.int "successful writes unchanged" 1 s.writes;
      let buf_path = Filename.concat parent "report.txt" in
      Out_channel.with_open_bin buf_path (fun oc -> Rescache.report ~out:oc c);
      Alcotest.(check bool) "report line carries write_errors" true
        (contains ~sub:"write_errors=2" (read_file buf_path)))

(* --- rescache: a writer killed mid-store ----------------------------------- *)

let test_killed_writer_tears_no_entry () =
  (* A child process rewrites eight 64 KiB entries in a loop until it is
     SIGKILLed while one of its temp files is in the root, that is, in the
     middle of a store.  Every entry must still read back whole and
     authentic: the kill may strand a temp file, which the store does not
     count, never a torn entry. *)
  with_dir (fun dir ->
      let n = 8 in
      let key i = Printf.sprintf "cell/%d" i in
      let value i = String.make 65536 (Char.chr (Char.code 'a' + i)) in
      match Unix.fork () with
      | 0 ->
        (try
           let s = Rescache.open_dir dir in
           let rec loop i =
             Rescache.store s ~key:(key (i mod n)) (value (i mod n));
             loop (i + 1)
           in
           loop 0
         with _ -> Unix._exit 1)
      | pid ->
        Fun.protect
          ~finally:(fun () ->
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid))
          (fun () ->
            let deadline = Unix.gettimeofday () +. 10. in
            while
              Rescache.entries (Rescache.open_dir dir) < n && Unix.gettimeofday () < deadline
            do
              Unix.sleepf 0.005
            done;
            let mid_store () =
              Array.exists (String.starts_with ~prefix:".tmp.") (Sys.readdir dir)
            in
            let deadline = Unix.gettimeofday () +. 2. in
            while (not (mid_store ())) && Unix.gettimeofday () < deadline do
              ()
            done);
        let s = Rescache.open_dir dir in
        check Alcotest.int "every entry was written before the kill" n (Rescache.entries s);
        for i = 0 to n - 1 do
          let found : string option = Rescache.find s ~key:(key i) in
          Alcotest.(check bool) (Printf.sprintf "%s reads back whole" (key i)) true
            (found = Some (value i))
        done;
        check Alcotest.int "no entry found damaged" 0 (counters s).corrupt_dropped)

(* --- the process pool ------------------------------------------------------ *)

let kill_self () = Unix.kill (Unix.getpid ()) Sys.sigkill

(* Run cells [0 .. n - 1] on [Procpool.map]: a worker runs [before] (which
   may kill it), then makes cell [i]'s value, [2 i] and its own pid.
   Returns the outcomes and the cells whose values reached [on_value], in
   arrival order. *)
let run_map ?(before = fun ~index:_ ~attempt:_ -> ()) ~workers ~retries n =
  let arrived = ref [] in
  let outcomes =
    Procpool.map ~workers ~retries
      ~attempt:(fun ~index ~attempt ->
        before ~index ~attempt;
        Ok (2 * index, Unix.getpid ()))
      ~on_value:(fun i _ -> arrived := i :: !arrived)
      n
  in
  (outcomes, List.rev !arrived)

(* Each outcome without the worker's pid. *)
let doubled outcomes =
  Array.to_list (Array.map (fun (r, attempts) -> (Result.map fst r, attempts)) outcomes)

let outcome = Alcotest.(pair (result int string) int)

let test_pool_completes () =
  let outcomes, arrived = run_map ~workers:3 ~retries:0 6 in
  check (Alcotest.list outcome) "every cell's value, on its first attempt"
    (List.init 6 (fun i -> (Ok (2 * i), 1)))
    (doubled outcomes);
  Alcotest.(check bool) "every value made in a worker" true
    (Array.for_all
       (function Ok (_, pid), _ -> pid <> Unix.getpid () | Error _, _ -> false)
       outcomes);
  check Alcotest.(list int) "each value reached on_value once" (List.init 6 Fun.id)
    (List.sort compare arrived)

let test_pool_kill_respawn_recovers () =
  (* The worker SIGKILLs itself before making cell 2's first attempt: the
     coordinator sees its EOF, and the retry forks a fresh worker that
     completes the cell. *)
  let outcomes, arrived =
    run_map ~workers:2 ~retries:1
      ~before:(fun ~index ~attempt -> if index = 2 && attempt = 0 then kill_self ())
      4
  in
  check (Alcotest.list outcome) "the killed cell completes on its retry"
    [ (Ok 0, 1); (Ok 2, 1); (Ok 4, 2); (Ok 6, 1) ]
    (doubled outcomes);
  check Alcotest.int "the killed cell's value arrived once" 1
    (List.length (List.filter (( = ) 2) arrived))

let test_pool_killed_every_attempt () =
  (* The retry budget bounds the forks: a cell whose worker dies on every
     attempt fails after [retries + 1] attempts with the reason of its last
     lost attempt, and every other cell completes. *)
  let outcomes, _ =
    run_map ~workers:2 ~retries:3
      ~before:(fun ~index ~attempt:_ -> if index = 1 then kill_self ())
      3
  in
  check (Alcotest.list outcome) "only the killed cell fails"
    [
      (Ok 0, 1);
      (Error (Printexc.to_string (Fault.Killed { index = 1; attempt = 3 })), 4);
      (Ok 4, 1);
    ]
    (doubled outcomes)

(* Two cells on two workers.  The coordinator touches [asleep] in cell 0's
   [on_value] and sleeps there for 0.5 s.  Cell 1's worker waits for
   [asleep] in its first attempt and then arms a 100 ms timer whose
   default SIGALRM action ends it, so it dies before the coordinator reads
   any of cell 1's frame.  A [size] beyond the pipe buffer makes the worker
   die blocked mid-write, leaving a short frame; a small one puts its whole
   frame in the pipe ahead of the EOF.  Returns each cell's value length
   and attempts. *)
let alarmed_run ~size =
  with_dir (fun dir ->
      let asleep = Filename.concat dir "asleep" in
      Procpool.map ~workers:2 ~retries:1
        ~attempt:(fun ~index ~attempt ->
          if index = 1 && attempt = 0 then begin
            let deadline = Unix.gettimeofday () +. 10. in
            while (not (Sys.file_exists asleep)) && Unix.gettimeofday () < deadline do
              Unix.sleepf 0.005
            done;
            ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = 0.1 })
          end;
          Ok (String.make (if index = 1 then size else 1) 'x'))
        ~on_value:(fun i _ ->
          if i = 0 then begin
            write_file asleep "";
            Unix.sleepf 0.5
          end)
        2
      |> Array.map (fun (r, attempts) -> (Result.map String.length r, attempts))
      |> Array.to_list)

let test_torn_frame_discarded () =
  check (Alcotest.list outcome) "the torn attempt is lost, and only that one"
    [ (Ok 1, 1); (Ok (1 lsl 22), 2) ]
    (alarmed_run ~size:(1 lsl 22))

let test_whole_frame_then_kill () =
  check (Alcotest.list outcome) "a whole frame completes its cell on that attempt"
    [ (Ok 1, 1); (Ok 5, 1) ]
    (alarmed_run ~size:5)

(* --- Supervise on worker processes ----------------------------------------- *)

let workers2 = { Supervise.default with jobs = 2 }

(* [n] cells whose value is [(i * i, pid of the process that ran it)], with
   a cache descriptor per cell when [cache]. *)
let pid_cells ?(cache = false) prefix n =
  List.init n (fun i ->
      let key = Printf.sprintf "%s/%d" prefix i in
      let cache = if cache then Some (Printf.sprintf "%s|%d" prefix i) else None in
      Supervise.cell ?cache key (fun ~fuel:_ -> (i * i, Unix.getpid ())))

let squares (sweep : (int * int) Supervise.sweep) =
  List.map (fun (k, v) -> (k, Option.map fst v)) sweep.Supervise.results

let ran_elsewhere (sweep : (int * int) Supervise.sweep) =
  List.for_all
    (function _, Some (_, pid) -> pid <> Unix.getpid () | _, None -> false)
    sweep.Supervise.results

let results = Alcotest.(list (pair string (option int)))

let test_sweep_forks_workers () =
  (* A library caller gets real worker processes: no CLI, no fallback to
     running in-process. *)
  let serial = Supervise.run (pid_cells "sq" 6) in
  let multi = Supervise.run ~config:workers2 (pid_cells "sq" 6) in
  check results "results equal -j 1" (squares serial) (squares multi);
  check Alcotest.int "all executed" 6 multi.Supervise.executed;
  Alcotest.(check bool) "every cell ran in a worker pid" true (ran_elsewhere multi)

let test_dependent_sweeps () =
  (* The second sweep's cells capture the first sweep's results: workers
     forked for it must see exactly the values the coordinator holds. *)
  let chain config =
    let first = Supervise.run ~config (pid_cells "cal" 4) in
    let upstream = List.fold_left (fun acc (_, v) -> acc + fst (Option.get v)) 0 first.results in
    let second =
      Supervise.run ~config
        (List.init 3 (fun i ->
             Supervise.cell (Printf.sprintf "point/%d" i) (fun ~fuel:_ ->
                 ((i * 100) + upstream, Unix.getpid ()))))
    in
    (squares first, squares second)
  in
  let serial_first, serial_second = chain Supervise.default in
  let multi_first, multi_second = chain workers2 in
  check results "upstream sweep" serial_first multi_first;
  check results "dependent sweep" serial_second multi_second

let test_kill_injection () =
  let kill = Result.get_ok (Fault.parse "kill@1") in
  let clean = Supervise.run (pid_cells "k" 4) in
  let healed = Supervise.run ~config:{ workers2 with fault = kill; retries = 1 } (pid_cells "k" 4) in
  check results "kill@1 with one retry equals the clean run" (squares clean) (squares healed);
  let failed = Supervise.run ~config:{ workers2 with fault = kill } (pid_cells "k" 4) in
  match failed.Supervise.failures with
  | [ f ] ->
    check Alcotest.string "failed cell" "k/1" f.Supervise.key;
    Alcotest.(check bool) ("reason: " ^ f.Supervise.reason) true
      (contains ~sub:"injected worker kill" f.Supervise.reason)
  | _ -> Alcotest.fail "expected exactly one failed cell"

let test_executors_report_same_failures () =
  (* Every attempt goes through one function, so a plan gives the same
     sweep on worker processes as in-process: values, attempt counts and
     failure reasons alike. *)
  let fault = Result.get_ok (Fault.parse "crash@0,flaky@1,poison@2,kill@3,slow@4") in
  let cells =
    List.init 6 (fun i -> Supervise.cell (Printf.sprintf "x/%d" i) (fun ~fuel:_ -> i * i))
  in
  let run config = Supervise.run ~config:{ config with Supervise.fault; retries = 1 } cells in
  let serial = run Supervise.default in
  let multi = run workers2 in
  check
    Alcotest.(list (triple string int string))
    "in-process failures"
    [
      ("x/0", 2, "injected crash (job 0, attempt 1)");
      ("x/2", 1, "injected poisoned result (job 2, attempt 0)");
    ]
    (List.map
       (fun (f : Supervise.failure) -> (f.key, f.attempts, f.reason))
       serial.Supervise.failures);
  check results "results" serial.Supervise.results multi.Supervise.results;
  Alcotest.(check bool) "failure lists equal" true
    (serial.Supervise.failures = multi.Supervise.failures)

let test_fault_index_counts_executed_cells () =
  (* As in-process: [b] repeats [a]'s descriptor, so it is no runnable cell
     of its own, and crash@1 hits [c]. *)
  let cell key desc v = Supervise.cell ~cache:desc key (fun ~fuel:_ -> v) in
  let fault = Result.get_ok (Fault.parse "crash@1") in
  let sweep =
    Supervise.run ~config:{ workers2 with fault }
      [ cell "a" "d|a" 1; cell "b" "d|a" 2; cell "c" "d|c" 3 ]
  in
  check results "b aliases a; c fails"
    [ ("a", Some 1); ("b", Some 1); ("c", None) ]
    sweep.Supervise.results;
  check
    Alcotest.(list (pair string string))
    "the crash hits c"
    [ ("c", "injected crash (job 1, attempt 0)") ]
    (List.map (fun (f : Supervise.failure) -> (f.key, f.reason)) sweep.Supervise.failures)

(* The JSON entries of store directory [dir], read directly: opening a
   store would create a missing one. *)
let json_entries dir =
  match Sys.readdir dir with
  | names ->
    Array.fold_left (fun n f -> if Filename.check_suffix f ".json" then n + 1 else n) 0 names
  | exception Sys_error _ -> 0

let test_killed_coordinator_keeps_cells () =
  (* A SIGKILLed coordinator keeps every value that reached it, since each
     is checkpointed as it arrives.  The coordinator is a child with a
     private temp directory, killed once the two quick cells are in the
     checkpoint and while the two slow ones still run.  Its workers must
     exit, and nothing may be left in its temp directory.  The coordinator
     and so its workers inherit the write end of [alive], which reads EOF
     once every one of them has exited. *)
  with_dir (fun dir ->
      let tmp = Filename.concat dir "tmp" and ck = Filename.concat dir "ck" in
      Unix.mkdir tmp 0o755;
      let cells =
        List.init 4 (fun i ->
            Supervise.cell ~cache:(Printf.sprintf "kc|%d" i) (Printf.sprintf "kc/%d" i)
              (fun ~fuel:_ ->
                if i >= 2 then Unix.sleepf 1.0;
                i * i))
      in
      let wait_for what p =
        let deadline = Unix.gettimeofday () +. 10. in
        while (not (p ())) && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.01
        done;
        Alcotest.(check bool) what true (p ())
      in
      let alive, alive_w = Unix.pipe () in
      flush_all ();
      match Unix.fork () with
      | 0 ->
        Unix.close alive;
        Filename.set_temp_dir_name tmp;
        (try ignore (Supervise.run ~config:{ workers2 with checkpoint = Some ck } cells)
         with _ -> ());
        Unix._exit 0
      | pid ->
        Unix.close alive_w;
        Fun.protect
          ~finally:(fun () -> Unix.close alive)
          (fun () ->
            Fun.protect
              ~finally:(fun () ->
                Unix.kill pid Sys.sigkill;
                ignore (Unix.waitpid [] pid))
              (fun () ->
                wait_for "the quick cells are checkpointed" (fun () -> json_entries ck >= 2));
            wait_for "the workers exit" (fun () ->
                match Unix.select [ alive ] [] [] 0. with
                | [], _, _ -> false
                | _ -> Unix.read alive (Bytes.create 1) 0 1 = 0);
            check Alcotest.int "killed mid-sweep" 2 (json_entries ck);
            let store = Rescache.open_dir ck in
            check
              Alcotest.(list (option int))
              "the values that arrived read back"
              [ Some 0; Some 1 ]
              (List.map (fun key -> Rescache.find store ~key) [ "kc|0"; "kc|1" ]);
            check Alcotest.(array string) "the temp directory is empty" [||] (Sys.readdir tmp)))

let test_many_kills_fail_alike () =
  (* Ten deaths in one sweep: each loses only its own attempt, so two and
     four worker processes fail exactly the cells the serial path fails,
     with the same reasons. *)
  let fault =
    Result.get_ok (Fault.parse (String.concat "," (List.init 10 (Printf.sprintf "kill@%d"))))
  in
  let cells =
    List.init 12 (fun i -> Supervise.cell (Printf.sprintf "x/%d" i) (fun ~fuel:_ -> i * i))
  in
  let run jobs =
    let s = Supervise.run ~config:{ Supervise.default with jobs; fault } cells in
    (s.Supervise.results, s.Supervise.failures)
  in
  let serial = run 1 in
  check Alcotest.int "ten failed cells" 10 (List.length (snd serial));
  List.iter
    (fun jobs ->
      let multi = run jobs in
      check results (Printf.sprintf "results at -j %d" jobs) (fst serial) (fst multi);
      Alcotest.(check bool)
        (Printf.sprintf "failure lists equal at -j %d" jobs)
        true
        (snd serial = snd multi))
    [ 2; 4 ]

let test_checkpoint_resume () =
  with_dir (fun dir ->
      let path = Filename.concat dir "checkpoint" in
      let first =
        Supervise.run ~config:{ workers2 with checkpoint = Some path }
          (pid_cells ~cache:true "ck" 5)
      in
      let resumed =
        Supervise.run
          ~config:{ workers2 with checkpoint = Some path; resume = true }
          (pid_cells ~cache:true "ck" 5)
      in
      check Alcotest.int "nothing executed" 0 resumed.Supervise.executed;
      check Alcotest.int "everything restored" 5 resumed.Supervise.restored;
      check results "same results" (squares first) (squares resumed))

let test_cached_sweep_starts_no_domain () =
  (* A fully cached sweep has nothing to run, so it forks no worker at
     [jobs = 2], and the next sweep still forks its own. *)
  with_dir (fun dir ->
      let rc = Rescache.open_dir dir in
      ignore (Supervise.run ~config:{ Supervise.default with cache = Some rc }
                (pid_cells ~cache:true "warm" 4));
      let config = { workers2 with cache = Some rc } in
      let warm = Supervise.run ~config (pid_cells ~cache:true "warm" 4) in
      check Alcotest.int "nothing executed" 0 warm.Supervise.executed;
      check Alcotest.int "everything cached" 4 warm.Supervise.cached;
      let next = Supervise.run ~config (pid_cells ~cache:true "cold" 3) in
      Alcotest.(check bool) "the next sweep still forks" true (ran_elsewhere next))

let test_worker_results_cached () =
  (* Workers never touch the cache; the coordinator stores every value as
     it arrives, so its counters see each write. *)
  with_dir (fun dir ->
      let rc = Rescache.open_dir dir in
      let sweep =
        Supervise.run ~config:{ workers2 with cache = Some rc } (pid_cells ~cache:true "c" 5)
      in
      check Alcotest.int "executed" 5 sweep.Supervise.executed;
      check Alcotest.int "one write per executed cell" 5 (counters rc).writes)

(* Alcotest sizes the name column of its report by the longest group name
   (here "rescache.recovery") and truncates longer case names to fit, so
   renaming or dropping that group changes how every case here is
   printed. *)
let suite =
  [
    ( "rescache.claims",
      [
        Alcotest.test_case "write errors counted" `Quick test_write_errors_counted;
      ] );
    ( "rescache.recovery",
      [
        Alcotest.test_case "killed writer tears no entry" `Quick
          test_killed_writer_tears_no_entry;
      ] );
    ( "procpool",
      [
        Alcotest.test_case "pool completes and values recover" `Quick test_pool_completes;
        Alcotest.test_case "kill, respawn, recover" `Quick test_pool_kill_respawn_recovers;
        Alcotest.test_case "cell killed on every attempt" `Quick test_pool_killed_every_attempt;
        Alcotest.test_case "frame torn by a kill discarded" `Quick test_torn_frame_discarded;
        Alcotest.test_case "kill after whole frame counts" `Quick test_whole_frame_then_kill;
      ] );
    ( "procpool.sweeps",
      [
        Alcotest.test_case "every cell runs in a worker" `Quick test_sweep_forks_workers;
        Alcotest.test_case "dependent sweeps match serial" `Quick test_dependent_sweeps;
        Alcotest.test_case "kill injection" `Quick test_kill_injection;
        Alcotest.test_case "executors report the same failures" `Quick
          test_executors_report_same_failures;
        Alcotest.test_case "ten kills fail as at -j 2" `Quick test_many_kills_fail_alike;
        Alcotest.test_case "fault indices count executed cells" `Quick
          test_fault_index_counts_executed_cells;
        Alcotest.test_case "killed coordinator keeps cells" `Quick
          test_killed_coordinator_keeps_cells;
        Alcotest.test_case "checkpoint then resume" `Quick test_checkpoint_resume;
        Alcotest.test_case "cached sweep starts no domain" `Quick
          test_cached_sweep_starts_no_domain;
        Alcotest.test_case "coordinator caches worker results" `Quick
          test_worker_results_cached;
      ] );
  ]
