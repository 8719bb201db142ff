(* Crash-safe multi-process execution: the checksummed journal format
   (double-tear recovery, corruption quarantine, old-format rejection,
   merge), the result cache's cross-process lease protocol and write-error
   accounting, and the coordinator/worker pool itself (via fork-spawned
   workers: completion, kill-respawn recovery, budget exhaustion, torn
   replies, drain timeout). *)

module Journal = Pv_util.Journal
module Rescache = Pv_util.Rescache
module Procpool = Pv_util.Procpool
module Checksum = Pv_util.Checksum

let check = Alcotest.check

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let temp_path prefix suffix =
  let p = Filename.temp_file prefix suffix in
  Sys.remove p;
  p

let with_journal f =
  let path = temp_path "pv_procpool" ".journal" in
  let rm p = if Sys.file_exists p then Sys.remove p in
  Fun.protect
    ~finally:(fun () ->
      rm path;
      rm (path ^ ".quarantine"))
    (fun () -> f path)

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

(* --- checksummed journal: tear recovery --------------------------------- *)

let test_double_tear_recovery () =
  (* Kill mid-append, resume, kill mid-append again, resume: the second
     resume must see every record the first resume wrote.  This is the PR 3
     truncate-fix regression guard, replayed against the checksummed
     format with real torn frames (append_torn = header + half payload,
     exactly what a mid-append SIGKILL leaves). *)
  with_journal (fun path ->
      let w = Journal.open_writer path in
      Journal.append w ~key:"a" 1;
      Journal.append w ~key:"b" 2;
      Journal.append_torn w ~key:"c" 3;
      Journal.close w;
      (* first resume: recovery truncates the tear, then writes c and tears d *)
      let w = Journal.open_writer path in
      Journal.append w ~key:"c" 3;
      Journal.append_torn w ~key:"d" 4;
      Journal.close w;
      (* second resume: must see a, b AND the c the first resume wrote *)
      check
        Alcotest.(list (pair string int))
        "second resume sees everything the first resume wrote"
        [ ("a", 1); ("b", 2); ("c", 3) ]
        (Journal.load path);
      let w = Journal.open_writer path in
      Journal.append w ~key:"d" 4;
      Journal.close w;
      check
        Alcotest.(list (pair string int))
        "post-second-resume appends land cleanly"
        [ ("a", 1); ("b", 2); ("c", 3); ("d", 4) ]
        (Journal.load path))

let test_quarantine_preserves_torn_bytes () =
  with_journal (fun path ->
      let w = Journal.open_writer path in
      Journal.append w ~key:"a" 1;
      Journal.append_torn w ~key:"b" 2;
      Journal.close w;
      let torn_size = (Unix.stat path).Unix.st_size in
      let w = Journal.open_writer path in
      Journal.close w;
      Alcotest.(check bool) "torn suffix copied to .quarantine" true
        (Sys.file_exists (path ^ ".quarantine"));
      let clean_size = (Unix.stat path).Unix.st_size in
      let quarantined = (Unix.stat (path ^ ".quarantine")).Unix.st_size in
      check Alcotest.int "no byte lost: clean + quarantined = torn file" torn_size
        (clean_size + quarantined))

let test_midfile_bitflip_quarantined () =
  (* The pre-checksum format only detected torn *tails*; a mid-file flip
     that still unmarshalled was served silently.  Now every frame is
     checksummed: a flip invalidates its record and everything after it. *)
  with_journal (fun path ->
      let w = Journal.open_writer path in
      Journal.append w ~key:"a" 11;
      Journal.append w ~key:"b" 22;
      Journal.append w ~key:"c" 33;
      Journal.close w;
      let body = read_file path in
      (* flip one payload byte inside the middle record *)
      let pos = String.length body / 2 in
      let b = Bytes.of_string body in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
      write_file path (Bytes.to_string b);
      let loaded : (string * int) list = Journal.load path in
      Alcotest.(check bool) "only a verified prefix survives" true
        (List.length loaded < 3);
      List.iter
        (fun (k, v) ->
          Alcotest.(check bool)
            (Printf.sprintf "surviving record %s is authentic" k)
            true
            (List.mem (k, v) [ ("a", 11); ("b", 22); ("c", 33) ]))
        loaded)

let test_corruption_property =
  (* Flip or truncate random bytes anywhere past the header: recovery must
     never surface a corrupt record — whatever loads is a prefix of what
     was written — and resume_status must never raise. *)
  let gen = QCheck.Gen.(triple (int_range 2 12) (int_range 0 2000) (int_range 0 255)) in
  let arb = QCheck.make gen ~print:(fun (n, pos, x) -> Printf.sprintf "(%d,%d,%d)" n pos x) in
  let prop (n, pos_seed, flip) =
    let path = temp_path "pv_jprop" ".journal" in
    Fun.protect
      ~finally:(fun () ->
        (try Sys.remove path with Sys_error _ -> ());
        try Sys.remove (path ^ ".quarantine") with Sys_error _ -> ())
      (fun () ->
        let written = List.init n (fun i -> (Printf.sprintf "cell/%d" i, i * 7)) in
        let w = Journal.open_writer path in
        List.iter (fun (k, v) -> Journal.append w ~key:k v) written;
        Journal.close w;
        let body = read_file path in
        let len = String.length body in
        let pos = String.length Journal.magic + (pos_seed mod max 1 (len - 8)) in
        let pos = min pos (len - 1) in
        (if flip mod 2 = 0 then begin
           (* bit damage *)
           let b = Bytes.of_string body in
           Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor max 1 (flip lsr 1)));
           write_file path (Bytes.to_string b)
         end
         else (* torn write: truncate mid-record *)
           write_file path (String.sub body 0 pos));
        let loaded : (string * int) list = Journal.load path in
        let rec is_prefix p l =
          match (p, l) with
          | [], _ -> true
          | x :: p', y :: l' -> x = y && is_prefix p' l'
          | _ :: _, [] -> false
        in
        let status_ok =
          match Journal.resume_status path with
          | Journal.Missing | Journal.Unusable _ -> true
          | Journal.Usable { records; distinct } ->
            records = List.length loaded && distinct <= records
        in
        is_prefix loaded written && status_ok)
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"random corruption never surfaces a corrupt record"
       ~count:200 arb prop)

let test_old_format_rejected () =
  (* A pre-checksum journal is bare Marshal records; it must be recognized
     by its magic and rejected with a one-line diagnostic, not misparsed. *)
  with_journal (fun path ->
      write_file path (Marshal.to_string ("key", 1) [] ^ Marshal.to_string ("k2", 2) []);
      (match Journal.load path with
      | (_ : (string * int) list) -> Alcotest.fail "old format must not load"
      | exception Journal.Incompatible msg ->
        Alcotest.(check bool)
          (Printf.sprintf "load diagnostic names the old format: %s" msg)
          true
          (contains ~sub:"pre-checksum" msg));
      (match Journal.open_writer path with
      | (_ : Journal.writer) -> Alcotest.fail "old format must not open for append"
      | exception Journal.Incompatible _ -> ());
      match Journal.resume_status path with
      | Journal.Unusable why ->
        Alcotest.(check bool) "preflight diagnostic names the old format" true
          (contains ~sub:"pre-checksum" why)
      | _ -> Alcotest.fail "old format must be Unusable for --resume")

let test_not_a_journal_rejected () =
  with_journal (fun path ->
      write_file path "{\"this\": \"is json, not a journal\"}";
      match Journal.resume_status path with
      | Journal.Unusable why ->
        Alcotest.(check bool) "diagnostic names the missing header" true
          (contains ~sub:"not a journal" why)
      | _ -> Alcotest.fail "foreign file must be Unusable")

let test_merge_into () =
  with_journal (fun target ->
      with_journal (fun src1 ->
          with_journal (fun src2 ->
              let w = Journal.open_writer src1 in
              Journal.append w ~key:"s1/a" 1;
              Journal.append w ~key:"s1/b" 2;
              Journal.close w;
              let w = Journal.open_writer src2 in
              Journal.append w ~key:"s2/a" 3;
              Journal.append_torn w ~key:"s2/torn" 4 (* killed mid-append *);
              Journal.close w;
              let w = Journal.open_writer target in
              Journal.append w ~key:"own" 0;
              check Alcotest.int "merged 2 from src1" 2 (Journal.merge_into w src1);
              check Alcotest.int "merged only verified records from src2" 1
                (Journal.merge_into w src2);
              check Alcotest.int "missing source merges nothing" 0
                (Journal.merge_into w "/nonexistent/worker.journal");
              Journal.close w;
              check
                Alcotest.(list (pair string int))
                "raw frame copy, in order"
                [ ("own", 0); ("s1/a", 1); ("s1/b", 2); ("s2/a", 3) ]
                (Journal.load target))))

(* --- rescache: claims and write errors ---------------------------------- *)

let test_claim_release_commit () =
  with_dir (fun dir ->
      let c = Rescache.open_dir dir in
      let lease =
        match Rescache.try_claim c ~key:"cell" with
        | `Claimed l -> l
        | `Busy _ -> Alcotest.fail "first claim must win"
      in
      (match Rescache.try_claim c ~key:"cell" with
      | `Busy (Some pid) -> check Alcotest.int "holder pid recorded" (Unix.getpid ()) pid
      | `Busy None -> Alcotest.fail "lease must record the holder pid"
      | `Claimed _ -> Alcotest.fail "second claim must lose");
      Rescache.release c lease;
      let lease2 =
        match Rescache.try_claim c ~key:"cell" with
        | `Claimed l -> l
        | `Busy _ -> Alcotest.fail "released lease must be claimable"
      in
      Rescache.commit c lease2 99;
      check Alcotest.(option int) "commit stored the value" (Some 99)
        (Rescache.find c ~key:"cell");
      match Rescache.try_claim c ~key:"cell" with
      | `Claimed l -> Rescache.release c l
      | `Busy _ -> Alcotest.fail "commit must release the lease")

let test_stale_lease_broken () =
  (* A lease naming a dead pid is a worker killed mid-compute; it must be
     broken and re-claimed, not honoured forever. *)
  with_dir (fun dir ->
      let c = Rescache.open_dir dir in
      let dead_pid =
        match Unix.fork () with
        | 0 -> Unix._exit 0
        | pid ->
          ignore (Unix.waitpid [] pid);
          pid
      in
      let lease =
        match Rescache.try_claim c ~key:"cell" with
        | `Claimed l -> l
        | `Busy _ -> Alcotest.fail "claim must win on empty dir"
      in
      (* forge the dead holder *)
      let lease_file =
        Sys.readdir dir |> Array.to_list
        |> List.find (fun n -> Filename.check_suffix n ".lease")
      in
      write_file (Filename.concat dir lease_file) (string_of_int dead_pid ^ "\n");
      ignore lease;
      match Rescache.try_claim c ~key:"cell" with
      | `Claimed l -> Rescache.release c l
      | `Busy _ -> Alcotest.fail "dead holder's lease must be broken")

let test_compute_through () =
  with_dir (fun dir ->
      let c = Rescache.open_dir dir in
      let runs = ref 0 in
      let f () = incr runs; 7 in
      let v, how = Rescache.compute_through c ~key:"k" f in
      check Alcotest.int "computed value" 7 v;
      Alcotest.(check bool) "first call computes" true (how = `Computed);
      let v2, how2 = Rescache.compute_through c ~key:"k" f in
      check Alcotest.int "hit value" 7 v2;
      Alcotest.(check bool) "second call hits" true (how2 = `Hit);
      check Alcotest.int "computed exactly once" 1 !runs;
      (* patience: a wedged (live) holder must not deadlock the pool *)
      let lease =
        match Rescache.try_claim c ~key:"slow" with
        | `Claimed l -> l
        | `Busy _ -> Alcotest.fail "claim must win"
      in
      let v3, how3 = Rescache.compute_through ~patience:0.05 ~poll:0.01 c ~key:"slow" f in
      check Alcotest.int "patience exhausted: computed anyway" 7 v3;
      Alcotest.(check bool) "reported as computed" true (how3 = `Computed);
      Rescache.release c lease;
      (* a raising compute releases the lease for the next claimant *)
      (match
         Rescache.compute_through c ~key:"boom" (fun () -> failwith "compute failed")
       with
      | (_ : int * _) -> Alcotest.fail "exception must propagate"
      | exception Failure _ -> ());
      match Rescache.try_claim c ~key:"boom" with
      | `Claimed l -> Rescache.release c l
      | `Busy _ -> Alcotest.fail "failed compute must release its lease")

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

(* --- the process pool (fork-spawned workers) ----------------------------- *)

(* A worker body for fork_spawner: journals DOUBLE(value-of-key) for each
   cell, optionally SIGKILLing itself mid-append for chosen (key, attempt)
   pairs — the same realization Supervise uses for --fault kill. *)
let worker_body ~kill_on (ctx : Procpool.ctx) =
  let w = Journal.open_writer ctx.Procpool.journal in
  Procpool.serve ctx ~handle:(fun ~index ~attempt ~key ->
      ignore index;
      let v = 2 * int_of_string (Filename.basename key) in
      if List.mem (key, attempt) kill_on then begin
        Journal.append_torn w ~key v;
        Unix.kill (Unix.getpid ()) Sys.sigkill;
        assert false
      end
      else begin
        Journal.append w ~key v;
        Procpool.Done
      end)

let keys_of n = Array.init n (fun i -> Printf.sprintf "cell/%d" i)

let values_from journals =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun j -> List.iter (fun (k, v) -> Hashtbl.replace tbl k v) (Journal.load j))
    journals;
  tbl

let test_pool_completes () =
  with_dir (fun scratch ->
      let keys = keys_of 6 in
      let outcomes, journals =
        Procpool.run_jobs ~workers:3 ~respawns:0 ~retries:0 ~scratch
          ~spawn:(Procpool.fork_spawner (worker_body ~kill_on:[])) ~keys ()
      in
      Array.iteri
        (fun i o ->
          match o with
          | Procpool.Completed { attempts } ->
            check Alcotest.int (Printf.sprintf "cell %d one attempt" i) 1 attempts
          | Procpool.Failed { reason; _ } ->
            Alcotest.fail (Printf.sprintf "cell %d failed: %s" i reason))
        outcomes;
      let tbl = values_from journals in
      Array.iteri
        (fun i k ->
          check Alcotest.(option int)
            (Printf.sprintf "value of %s recovered from worker journals" k)
            (Some (2 * i)) (Hashtbl.find_opt tbl k))
        keys)

let test_pool_kill_respawn_recovers () =
  (* Worker SIGKILLs itself mid-append on cell/2's first attempt: the
     coordinator must reap it, respawn into the same journal (recovering
     the torn record), and retry the cell to completion. *)
  with_dir (fun scratch ->
      let keys = keys_of 4 in
      let outcomes, journals =
        Procpool.run_jobs ~workers:2 ~respawns:4 ~retries:1 ~scratch
          ~spawn:(Procpool.fork_spawner (worker_body ~kill_on:[ ("cell/2", 0) ]))
          ~keys ()
      in
      (match outcomes.(2) with
      | Procpool.Completed { attempts } ->
        check Alcotest.int "killed cell retried once" 2 attempts
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
      let tbl = values_from journals in
      check Alcotest.(option int) "killed cell's value recovered" (Some 4)
        (Hashtbl.find_opt tbl "cell/2"))

let test_pool_budget_exhaustion_fails_cleanly () =
  (* A persistently killing cell with a tiny respawn budget: the pool must
     fail the cell (and only report transient loss) instead of hanging. *)
  with_dir (fun scratch ->
      let kill_on = List.init 10 (fun a -> ("cell/1", a)) in
      let keys = keys_of 3 in
      let outcomes, journals =
        Procpool.run_jobs ~workers:2 ~respawns:1 ~retries:5 ~scratch
          ~spawn:(Procpool.fork_spawner (worker_body ~kill_on))
          ~keys ()
      in
      (match outcomes.(1) with
      | Procpool.Failed { transient; _ } ->
        Alcotest.(check bool) "loss reported transient" true transient
      | Procpool.Completed _ -> Alcotest.fail "persistently killed cell cannot complete");
      let tbl = values_from journals in
      check Alcotest.(option int) "poisonous cell left no value" None
        (Hashtbl.find_opt tbl "cell/1"))

(* A worker whose reply is torn: it writes "OK <i>" with no terminating
   newline and SIGKILLs itself mid-line.  With [journaled] it appends the
   cell's record first, on every attempt; without, it tears the first
   attempt before journaling anything and serves the retry normally. *)
let torn_reply_body ~journaled (ctx : Procpool.ctx) =
  let w = Journal.open_writer ctx.Procpool.journal in
  Procpool.serve ctx ~handle:(fun ~index ~attempt ~key ->
      let v = 2 * int_of_string (Filename.basename key) in
      if journaled || attempt = 0 then begin
        if journaled then Journal.append w ~key v;
        output_string ctx.Procpool.reply_out (Printf.sprintf "OK %d" index);
        flush ctx.Procpool.reply_out;
        Unix.kill (Unix.getpid ()) Sys.sigkill
      end;
      Journal.append w ~key v;
      Procpool.Done)

let test_torn_line_discarded () =
  (* A reply torn mid-line by a dying worker must be discarded, not parsed:
     the journal alone decides the cell.  A record that raced the torn
     reply counts the cell completed on its first attempt; without one the
     attempt is lost and retried — a parsed torn "OK" would instead claim a
     first-attempt completion with no value behind it. *)
  List.iter
    (fun (journaled, expected_attempts) ->
      with_dir (fun scratch ->
          let keys = keys_of 3 in
          let outcomes, journals =
            Procpool.run_jobs ~workers:1 ~respawns:6 ~retries:1 ~scratch
              ~spawn:(Procpool.fork_spawner (torn_reply_body ~journaled))
              ~keys ()
          in
          Array.iteri
            (fun i o ->
              match o with
              | Procpool.Completed { attempts } ->
                check Alcotest.int
                  (Printf.sprintf "cell %d attempts (journaled=%b)" i journaled)
                  expected_attempts attempts
              | Procpool.Failed { reason; _ } ->
                Alcotest.fail (Printf.sprintf "cell %d failed: %s" i reason))
            outcomes;
          let tbl = values_from journals in
          Array.iteri
            (fun i k ->
              check Alcotest.(option int)
                (Printf.sprintf "value of %s recovered" k)
                (Some (2 * i)) (Hashtbl.find_opt tbl k))
            keys))
    [ (true, 1); (false, 2) ]

(* --- hostile reply lines ---------------------------------------------------- *)

(* Serves like [worker_body ~kill_on:[]], but after journaling each cell
   writes [junk index] to the reply pipe ahead of its real reply. *)
let junk_worker junk (ctx : Procpool.ctx) =
  let w = Journal.open_writer ctx.Procpool.journal in
  Procpool.serve ctx ~handle:(fun ~index ~attempt:_ ~key ->
      Journal.append w ~key (2 * int_of_string (Filename.basename key));
      List.iter (fun l -> output_string ctx.Procpool.reply_out (l ^ "\n")) (junk index);
      flush ctx.Procpool.reply_out;
      Procpool.Done)

(* Run [n] cells on two junk-emitting workers; true iff every cell completed
   on its first attempt with its value in a worker journal. *)
let sweep_survives_junk ~n junk =
  with_dir (fun scratch ->
      let keys = keys_of n in
      let outcomes, journals =
        Procpool.run_jobs ~workers:2 ~respawns:0 ~retries:0 ~scratch
          ~spawn:(Procpool.fork_spawner (junk_worker junk))
          ~keys ()
      in
      let tbl = values_from journals in
      Array.for_all (function Procpool.Completed { attempts = 1 } -> true | _ -> false) outcomes
      && Array.for_all (fun k -> Hashtbl.mem tbl k) keys)

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
  Alcotest.(check bool) "every cell completes once, its value journaled" true
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
      let keys = keys_of 2 in
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
            Procpool.run_jobs ~drain_timeout:0.2 ~workers:1 ~respawns:0 ~retries:0
              ~scratch
              ~spawn:
                (Procpool.fork_spawner (fun ctx ->
                     worker_body ~kill_on:[] ctx;
                     Unix.sleep 60))
              ~keys ())
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

let suite =
  [
    ( "journal2.recovery",
      [
        Alcotest.test_case "double-tear recovery" `Quick test_double_tear_recovery;
        Alcotest.test_case "quarantine preserves torn bytes" `Quick
          test_quarantine_preserves_torn_bytes;
        Alcotest.test_case "mid-file bit flip quarantined" `Quick
          test_midfile_bitflip_quarantined;
        test_corruption_property;
      ] );
    ( "journal2.compat",
      [
        Alcotest.test_case "pre-checksum format rejected" `Quick test_old_format_rejected;
        Alcotest.test_case "foreign file rejected" `Quick test_not_a_journal_rejected;
        Alcotest.test_case "merge folds verified records" `Quick test_merge_into;
      ] );
    ( "rescache.claims",
      [
        Alcotest.test_case "claim/release/commit" `Quick test_claim_release_commit;
        Alcotest.test_case "stale lease broken" `Quick test_stale_lease_broken;
        Alcotest.test_case "compute_through protocol" `Quick test_compute_through;
        Alcotest.test_case "write errors counted" `Quick test_write_errors_counted;
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
  ]
