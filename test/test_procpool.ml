(* Crash-safe multi-process execution: the result store's write-error
   accounting, the coordinator/worker pool itself (completion, kill-respawn
   recovery, budget exhaustion, torn replies, drain timeout), and Supervise
   sweeps on worker processes.  This executable never starts a domain:
   OCaml 5 refuses to fork after one. *)

module Rescache = Pv_util.Rescache
module Procpool = Pv_util.Procpool
module Checksum = Pv_util.Checksum
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

(* --- rescache: write errors ----------------------------------------------- *)

let test_write_errors_counted () =
  (* A cache that cannot write must degrade (count + warn), not raise and
     not pretend the store happened. *)
  with_dir (fun parent ->
      let dir = Filename.concat parent "cache" in
      let c = Rescache.open_dir dir in
      Rescache.store c ~key:"ok" 1;
      check Alcotest.int "healthy store counted" 1 (Rescache.stats c).Rescache.writes;
      (* break the cache root: replace the directory with a regular file, so
         the temp-file open fails with ENOTDIR even for root *)
      rm_rf dir;
      write_file dir "not a directory";
      Rescache.store c ~key:"fails" 2;
      Rescache.store c ~key:"fails2" 3;
      let s = Rescache.stats c in
      check Alcotest.int "failed stores counted" 2 s.Rescache.write_errors;
      check Alcotest.int "successful writes unchanged" 1 s.Rescache.writes;
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
        check Alcotest.int "no entry found damaged" 0 (Rescache.stats s).Rescache.corrupt_dropped)

(* --- the process pool ------------------------------------------------------ *)

(* A worker body for run_jobs: stores DOUBLE(value-of-key) for each cell,
   optionally SIGKILLing itself for chosen (key, attempt) pairs after
   leaving a torn temp file, as a store killed before its rename would. *)
let worker_body ~kill_on store (ctx : Procpool.ctx) =
  ignore (Procpool.serve ctx ~handle:(fun ~index:_ ~attempt ~key ->
      let v = 2 * int_of_string (Filename.basename key) in
      if List.mem (key, attempt) kill_on then begin
        write_file
          (Filename.concat (Rescache.dir store) (Printf.sprintf ".tmp.%d.1" (Unix.getpid ())))
          "{\n  \"rescache_version\"";
        Unix.kill (Unix.getpid ()) Sys.sigkill;
        assert false
      end
      else begin
        Rescache.store store ~key v;
        Procpool.Done
      end))

let keys_of n = Array.init n (fun i -> Printf.sprintf "cell/%d" i)

(* Run cells cell/0 .. cell/<n-1> on workers running [worker store], where
   [store] is one scratch store of the run's own: a dead worker's cell
   counts as finished when its entry is there.  Returns the outcomes and
   each cell's stored value. *)
let run_pool ?drain_timeout ~workers ~respawns ~retries ~worker n =
  with_dir (fun dir ->
      let store = Rescache.open_dir dir in
      let keys = keys_of n in
      let value key : int option = Rescache.find store ~key in
      let outcomes =
        Procpool.run_jobs ?drain_timeout ~workers ~respawns ~retries
          ~finished:(fun i -> value keys.(i) <> None)
          ~worker:(worker store) ~keys ()
      in
      (outcomes, Array.map value keys))

let test_pool_completes () =
  let outcomes, values =
    run_pool ~workers:3 ~respawns:0 ~retries:0 ~worker:(worker_body ~kill_on:[]) 6
  in
  Array.iteri
    (fun i o ->
      match o with
      | Procpool.Completed { attempts } ->
        check Alcotest.int (Printf.sprintf "cell %d one attempt" i) 1 attempts
      | Procpool.Failed { reason; _ } ->
        Alcotest.fail (Printf.sprintf "cell %d failed: %s" i reason))
    outcomes;
  Array.iteri
    (fun i v ->
      check Alcotest.(option int)
        (Printf.sprintf "value of cell/%d recovered from the store" i)
        (Some (2 * i)) v)
    values

let test_pool_kill_respawn_recovers () =
  (* Worker SIGKILLs itself before storing cell/2 on its first attempt: the
     coordinator must reap it, find no entry (only a torn temp file),
     respawn, and retry the cell to completion. *)
  let outcomes, values =
    run_pool ~workers:2 ~respawns:4 ~retries:1
      ~worker:(worker_body ~kill_on:[ ("cell/2", 0) ])
      4
  in
  (match outcomes.(2) with
  | Procpool.Completed { attempts } -> check Alcotest.int "killed cell retried once" 2 attempts
  | Procpool.Failed { reason; _ } ->
    Alcotest.fail (Printf.sprintf "killed cell must recover: %s" reason));
  Array.iteri
    (fun i o ->
      if i <> 2 then
        match o with
        | Procpool.Completed _ -> ()
        | Procpool.Failed { reason; _ } ->
          Alcotest.fail (Printf.sprintf "cell %d failed: %s" i reason))
    outcomes;
  check Alcotest.(option int) "killed cell's value recovered" (Some 4) values.(2)

let test_pool_budget_exhaustion_fails_cleanly () =
  (* A persistently killing cell with a tiny respawn budget: the pool must
     fail the cell (and only report transient loss) instead of hanging. *)
  let kill_on = List.init 10 (fun a -> ("cell/1", a)) in
  let outcomes, values =
    run_pool ~workers:2 ~respawns:1 ~retries:5 ~worker:(worker_body ~kill_on) 3
  in
  (match outcomes.(1) with
  | Procpool.Failed { transient; _ } ->
    Alcotest.(check bool) "loss reported transient" true transient
  | Procpool.Completed _ -> Alcotest.fail "persistently killed cell cannot complete");
  check Alcotest.(option int) "poisonous cell left no value" None values.(1)

(* A worker whose reply is torn: it writes "OK <i>" with no terminating
   newline and SIGKILLs itself mid-line.  With [stored] it stores the
   cell's value first, on every attempt; without, it tears the first
   attempt before storing anything and serves the retry normally. *)
let torn_reply_body ~stored store (ctx : Procpool.ctx) =
  ignore (Procpool.serve ctx ~handle:(fun ~index ~attempt ~key ->
      let v = 2 * int_of_string (Filename.basename key) in
      if stored || attempt = 0 then begin
        if stored then Rescache.store store ~key v;
        output_string ctx.Procpool.reply_out (Printf.sprintf "OK %d" index);
        flush ctx.Procpool.reply_out;
        Unix.kill (Unix.getpid ()) Sys.sigkill
      end;
      Rescache.store store ~key v;
      Procpool.Done))

let test_torn_line_discarded () =
  (* A reply torn mid-line by a dying worker must be discarded, not parsed:
     the store alone decides the cell.  An entry that raced the torn reply
     counts the cell completed on its first attempt; without one the
     attempt is lost and retried — a parsed torn "OK" would instead claim a
     first-attempt completion with no value behind it. *)
  List.iter
    (fun (stored, expected_attempts) ->
      let outcomes, values =
        run_pool ~workers:1 ~respawns:6 ~retries:1 ~worker:(torn_reply_body ~stored) 3
      in
      Array.iteri
        (fun i o ->
          match o with
          | Procpool.Completed { attempts } ->
            check Alcotest.int
              (Printf.sprintf "cell %d attempts (stored=%b)" i stored)
              expected_attempts attempts
          | Procpool.Failed { reason; _ } ->
            Alcotest.fail (Printf.sprintf "cell %d failed: %s" i reason))
        outcomes;
      Array.iteri
        (fun i v ->
          check Alcotest.(option int) (Printf.sprintf "value of cell/%d recovered" i)
            (Some (2 * i)) v)
        values)
    [ (true, 1); (false, 2) ]

(* --- hostile reply lines ---------------------------------------------------- *)

(* Serves like [worker_body ~kill_on:[]], but after storing each cell
   writes [junk index] to the reply pipe ahead of its real reply. *)
let junk_worker junk store (ctx : Procpool.ctx) =
  ignore (Procpool.serve ctx ~handle:(fun ~index ~attempt:_ ~key ->
      Rescache.store store ~key (2 * int_of_string (Filename.basename key));
      List.iter (fun l -> output_string ctx.Procpool.reply_out (l ^ "\n")) (junk index);
      flush ctx.Procpool.reply_out;
      Procpool.Done))

(* Run [n] cells on two junk-emitting workers; true iff every cell completed
   on its first attempt with its value in the store. *)
let sweep_survives_junk ~n junk =
  let outcomes, values = run_pool ~workers:2 ~respawns:0 ~retries:0 ~worker:(junk_worker junk) n in
  Array.for_all (function Procpool.Completed { attempts = 1 } -> true | _ -> false) outcomes
  && Array.for_all Option.is_some values

let test_hostile_replies_dropped () =
  (* The OK/ERR lines with a bad index or class once did damage: a
     non-decimal or out-of-range index raised out of the coordinator or
     resolved the wrong cell, an OK/ERR for a cell the worker was not
     running resolved that cell without running it, and an unknown ERR
     class failed the cell as permanent.  The rest are malformed shapes
     that must stay harmless. *)
  let n = 4 in
  let hostile index =
    let other = (index + 1) mod n in
    [
      "OK -1"; "OK +1"; "OK 0x1"; "OK 0b1"; "OK 1_000"; Printf.sprintf "OK %d" n;
      "OK 99999"; "OK 99999999999999999999999"; Printf.sprintf "OK %d" other;
      Printf.sprintf "ERR %d T %s" other (Checksum.hex_of_string "forged");
      Printf.sprintf "ERR %d X %s" index (Checksum.hex_of_string "bad class");
      Printf.sprintf "ERR %d T zz" index; Printf.sprintf "OK %d trailing" index; "";
      "RUN 0 0 00"; "FIN";
    ]
  in
  Alcotest.(check bool) "every cell completes once, its value stored" true
    (sweep_survives_junk ~n hostile)

let hostile_line_gen =
  let open QCheck.Gen in
  let index = oneof [ int_range (-3) 8; oneofl [ max_int; min_int; 1 lsl 40 ] ] in
  let hex = map Checksum.hex_of_string (string_size ~gen:char (int_bound 6)) in
  let byte = char_range ' ' '~' in
  let template =
    oneof
      [
        map (Printf.sprintf "OK %d") index;
        map (Printf.sprintf "OK 0x%x") index;
        map3 (Printf.sprintf "ERR %d %c %s") index (oneofl [ 'T'; 'P'; 'X'; 't' ]) hex;
        map2 (Printf.sprintf "RUN %d 0 %s") index hex;
        oneofl [ "RDY"; "FIN"; "" ];
      ]
  in
  let mutate s =
    let len = String.length s in
    let* pos = int_bound len in
    let* c = byte in
    let* op = int_bound 2 in
    return
      (match op with
      | 0 when pos < len -> String.mapi (fun i x -> if i = pos then c else x) s
      | 1 when pos < len -> String.sub s 0 pos ^ String.sub s (pos + 1) (len - pos - 1)
      | _ -> String.sub s 0 pos ^ String.make 1 c ^ String.sub s pos (len - pos))
  in
  frequency
    [
      (3, template);
      (3, template >>= mutate);
      (1, string_size ~gen:byte (int_bound 12));
    ]

let print_lines ls = String.concat " " (List.map (Printf.sprintf "%S") ls)

let test_hostile_replies_property =
  (* Random and mutated reply lines ahead of every real reply: the sweep
     must neither raise nor resolve a cell that is not in flight.  Lines
     naming the replying worker's own cell are not sent — a lenient reading
     of their index says they could legitimately resolve it. *)
  let names_cell index l =
    match String.split_on_char ' ' l with
    | ("OK" | "ERR") :: i :: _ -> int_of_string_opt i = Some index
    | _ -> false
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:30
       ~name:"hostile reply lines never raise or resolve a cell out of flight"
       (QCheck.make ~print:print_lines QCheck.Gen.(list_size (int_bound 6) hostile_line_gen))
       (fun lines ->
         sweep_survives_junk ~n:4 (fun index ->
             List.filter (fun l -> not (names_cell index l)) lines)))

let line_gen =
  let open QCheck.Gen in
  let key = string_size ~gen:char (int_bound 12) in
  oneof
    [
      map3 (fun index attempt key -> Procpool.Run { index; attempt; key }) nat nat key;
      return Procpool.Fin;
      return Procpool.Rdy;
      map (fun i -> Procpool.Ok_ i) nat;
      map3
        (fun index transient reason -> Procpool.Err { index; transient; reason })
        nat bool key;
    ]

let test_wire_lines_round_trip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"wire lines: parse_line inverts render_line"
       (QCheck.make ~print:Procpool.render_line line_gen)
       (fun l -> Procpool.parse_line (Procpool.render_line l) = Some l))

let test_wire_lines_hostile =
  (* Whatever parse_line accepts carries non-negative numbers and survives a
     render/parse round trip; nothing makes it raise. *)
  let non_negative = function
    | Procpool.Run { index; attempt; _ } -> index >= 0 && attempt >= 0
    | Procpool.Ok_ index | Procpool.Err { index; _ } -> index >= 0
    | Procpool.Fin | Procpool.Rdy -> true
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:1000 ~name:"wire lines: hostile input parses safely"
       (QCheck.make ~print:(Printf.sprintf "%S") hostile_line_gen)
       (fun s ->
         match Procpool.parse_line s with
         | None -> true
         | Some l -> non_negative l && Procpool.parse_line (Procpool.render_line l) = Some l))

let test_drain_timeout_kills_straggler () =
  (* A worker that survives FIN must be killed once the configured drain
     grace expires — promptly, with a warning naming it — instead of
     wedging the coordinator for the default 10 s. *)
  with_dir (fun scratch ->
      let stderr_copy = Filename.concat scratch "stderr.txt" in
      let saved = Unix.dup Unix.stderr in
      let fd =
        Unix.openfile stderr_copy [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
      in
      Unix.dup2 fd Unix.stderr;
      Unix.close fd;
      let t0 = Unix.gettimeofday () in
      let outcomes, _ =
        Fun.protect
          ~finally:(fun () ->
            flush stderr;
            Unix.dup2 saved Unix.stderr;
            Unix.close saved)
          (fun () ->
            run_pool ~drain_timeout:0.2 ~workers:1 ~respawns:0 ~retries:0
              ~worker:(fun store ctx ->
                worker_body ~kill_on:[] store ctx;
                Unix.sleep 60)
              2)
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      Array.iteri
        (fun i o ->
          match o with
          | Procpool.Completed _ -> ()
          | Procpool.Failed { reason; _ } ->
            Alcotest.fail (Printf.sprintf "cell %d failed: %s" i reason))
        outcomes;
      Alcotest.(check bool)
        (Printf.sprintf "returned promptly (%.1fs)" elapsed)
        true (elapsed < 5.0);
      Alcotest.(check bool) "warning names the straggler" true
        (contains ~sub:"did not exit within" (read_file stderr_copy)))

(* --- Supervise on worker processes ----------------------------------------- *)

let workers2 = { Supervise.default with workers = 2 }

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
     the in-process pool. *)
  let serial = Supervise.run (pid_cells "sq" 6) in
  let multi = Supervise.run ~config:workers2 (pid_cells "sq" 6) in
  check results "results equal workers = 1" (squares serial) (squares multi);
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
  (* Both executors make every attempt through one function, so a plan
     gives the same sweep on worker processes as in-process: values,
     attempt counts and failure reasons alike. *)
  let fault = Result.get_ok (Fault.parse "crash@0,flaky@1,poison@2,kill@3,slow@4") in
  let cells =
    List.init 6 (fun i -> Supervise.cell (Printf.sprintf "x/%d" i) (fun ~fuel:_ -> i * i))
  in
  let run config = Supervise.run ~config:{ config with Supervise.fault; retries = 1 } cells in
  let serial = run { Supervise.default with workers = 1; jobs = 1 } in
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

let test_killed_coordinator_leaves_no_scratch () =
  (* A SIGKILLed coordinator never runs its own cleanup, so its workers —
     at EOF on the command pipe, or unable to reply — remove the sweep's
     scratch store.  The coordinator is a child with a private temp
     directory, killed once a worker has stored the quick cell 0 and while
     the slow cells are still running. *)
  with_dir (fun tmp ->
      (* Read directly: opening a store would recreate a removed one. *)
      let json_files d =
        match Sys.readdir (Filename.concat tmp d) with
        | names -> List.filter (fun f -> Filename.check_suffix f ".json") (Array.to_list names)
        | exception Sys_error _ -> []
      in
      let entries () =
        Array.fold_left (fun n d -> n + List.length (json_files d)) 0 (Sys.readdir tmp)
      in
      let wait_for what p =
        let deadline = Unix.gettimeofday () +. 10. in
        while (not (p ())) && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.01
        done;
        Alcotest.(check bool) what true (p ())
      in
      flush_all ();
      match Unix.fork () with
      | 0 ->
        Filename.set_temp_dir_name tmp;
        let cells =
          List.init 3 (fun i ->
              Supervise.cell (Printf.sprintf "slow/%d" i) (fun ~fuel:_ ->
                  if i > 0 then Unix.sleepf 1.0;
                  i))
        in
        (try ignore (Supervise.run ~config:workers2 cells) with _ -> ());
        Unix._exit 0
      | pid ->
        Fun.protect
          ~finally:(fun () ->
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
          (fun () ->
            wait_for "a worker stored cell 0" (fun () -> entries () > 0);
            Alcotest.(check bool) "killed mid-sweep" true (entries () < 3));
        wait_for "the workers removed the scratch store" (fun () -> Sys.readdir tmp = [||]))

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
  (* A fully cached sweep has nothing to run, so no executor starts — not
     even the domain pool its [jobs = 2] would pick at [workers = 1].  A
     started domain would make every later fork in this process fail. *)
  with_dir (fun dir ->
      let rc = Rescache.open_dir dir in
      ignore (Supervise.run ~config:{ Supervise.default with cache = Some rc }
                (pid_cells ~cache:true "warm" 4));
      let config = { workers2 with jobs = 2; cache = Some rc } in
      let warm = Supervise.run ~config (pid_cells ~cache:true "warm" 4) in
      check Alcotest.int "nothing executed" 0 warm.Supervise.executed;
      check Alcotest.int "everything cached" 4 warm.Supervise.cached;
      let next = Supervise.run ~config (pid_cells ~cache:true "cold" 3) in
      Alcotest.(check bool) "the next sweep still forks" true (ran_elsewhere next))

let test_worker_results_cached () =
  (* Workers never touch the cache; the coordinator stores every value it
     reads back, so its counters see each write. *)
  with_dir (fun dir ->
      let rc = Rescache.open_dir dir in
      let sweep =
        Supervise.run ~config:{ workers2 with cache = Some rc } (pid_cells ~cache:true "c" 5)
      in
      check Alcotest.int "executed" 5 sweep.Supervise.executed;
      check Alcotest.int "one write per executed cell" 5 (Rescache.stats rc).Rescache.writes)

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
        Alcotest.test_case "respawn budget exhaustion" `Quick
          test_pool_budget_exhaustion_fails_cleanly;
        Alcotest.test_case "torn reply line discarded" `Quick test_torn_line_discarded;
        Alcotest.test_case "drain timeout kills straggler" `Quick
          test_drain_timeout_kills_straggler;
        Alcotest.test_case "hostile replies dropped" `Quick test_hostile_replies_dropped;
        test_hostile_replies_property;
      ] );
    ("procpool.wire", [ test_wire_lines_round_trip; test_wire_lines_hostile ]);
    ( "procpool.sweeps",
      [
        Alcotest.test_case "every cell runs in a worker" `Quick test_sweep_forks_workers;
        Alcotest.test_case "dependent sweeps match serial" `Quick test_dependent_sweeps;
        Alcotest.test_case "kill injection" `Quick test_kill_injection;
        Alcotest.test_case "executors report the same failures" `Quick
          test_executors_report_same_failures;
        Alcotest.test_case "killed coordinator leaves no scratch store" `Quick
          test_killed_coordinator_leaves_no_scratch;
        Alcotest.test_case "checkpoint then resume" `Quick test_checkpoint_resume;
        Alcotest.test_case "cached sweep starts no domain" `Quick
          test_cached_sweep_starts_no_domain;
        Alcotest.test_case "coordinator caches worker results" `Quick
          test_worker_results_cached;
      ] );
  ]
