(* Coordinator/worker process pool.  See procpool.mli for the execution
   model; this file is deliberately mechanical — what a cell *is* and how a
   verdict is produced live in the experiment layer (Supervise), which hands
   [serve] a [handle] callback and interprets [run_jobs]' outcomes.

   Wire protocol (newline-framed ASCII over two pipes per worker):

     coordinator -> worker   RUN <index> <attempt> <hex key>
                             FIN
     worker -> coordinator   RDY
                             OK <index>
                             ERR <index> <T|P> <hex reason>

   Keys and failure reasons travel hex-encoded so they can never smuggle a
   newline or space into the framing.  Results never travel inside the
   control protocol: a worker journals the value, replies [OK], and the
   coordinator reads the value back from the worker's journal after the
   sweep — so a kill between journal append and reply loses only the reply,
   and the coordinator recovers the value from the journal when it reaps
   the corpse. *)

exception Worker_failure of string

let () =
  Printexc.register_printer (function
    (* The reason is a worker-side [Printexc.to_string]; printing it
       verbatim keeps multi-process failure reports byte-identical to
       single-process ones. *)
    | Worker_failure reason -> Some reason
    | _ -> None)

let env_float name default =
  match Sys.getenv_opt name with
  | Some s -> (
    match float_of_string_opt s with Some f when f > 0.0 -> f | _ -> default)
  | None -> default

let default_drain_timeout () = env_float "PV_PROCPOOL_DRAIN_S" 10.0

(* --- worker-side context ----------------------------------------------- *)

type ctx = {
  wid : int;
  journal : string;
  sweep : int;
  replay : string option;
  cmd_in : in_channel;
  reply_out : out_channel;
}

let worker : ctx option ref = ref None
let worker_ctx () = !worker
let in_worker () = !worker <> None

let worker_arg = "__worker"

let worker_init () =
  let getenv name =
    match Sys.getenv_opt name with
    | Some v -> v
    | None ->
      Printf.eprintf "procpool worker: missing %s in environment\n%!" name;
      exit 70
  in
  let wid =
    match int_of_string_opt (getenv "PV_WORKER_ID") with
    | Some w -> w
    | None ->
      Printf.eprintf "procpool worker: malformed PV_WORKER_ID\n%!";
      exit 70
  in
  let journal = getenv "PV_WORKER_JOURNAL" in
  let sweep =
    match int_of_string_opt (getenv "PV_WORKER_SWEEP") with
    | Some s -> s
    | None ->
      Printf.eprintf "procpool worker: malformed PV_WORKER_SWEEP\n%!";
      exit 70
  in
  let replay =
    match Sys.getenv_opt "PV_WORKER_REPLAY" with
    | Some "" | None -> None
    | Some p -> Some p
  in
  (* The reply channel is a private dup of stdout taken *before* stdout is
     pointed at /dev/null: the worker re-runs the whole CLI code path, which
     prints tables and reports as it goes, and none of that may leak into
     the protocol stream (or the user's terminal). *)
  let reply_fd = Unix.dup Unix.stdout in
  Unix.set_close_on_exec reply_fd;
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 devnull Unix.stdout;
  if Sys.getenv_opt "PV_PROCPOOL_DEBUG" = None then Unix.dup2 devnull Unix.stderr;
  Unix.close devnull;
  let ctx =
    {
      wid;
      journal;
      sweep;
      replay;
      cmd_in = Unix.in_channel_of_descr Unix.stdin;
      reply_out = Unix.out_channel_of_descr reply_fd;
    }
  in
  worker := Some ctx;
  ctx

(* --- worker-side serving ----------------------------------------------- *)

type verdict = Done | Fail of { transient : bool; reason : string }

let reply_line oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let serve ctx ~handle =
  reply_line ctx.reply_out "RDY";
  let rec loop () =
    match input_line ctx.cmd_in with
    | exception End_of_file -> ()
    | "FIN" -> ()
    | line -> (
      match String.split_on_char ' ' line with
      | [ "RUN"; idx; att; hexkey ] -> (
        match
          (int_of_string_opt idx, int_of_string_opt att, Checksum.string_of_hex hexkey)
        with
        | Some index, Some attempt, Some key ->
          (match handle ~index ~attempt ~key with
          | Done -> reply_line ctx.reply_out (Printf.sprintf "OK %d" index)
          | Fail { transient; reason } ->
            reply_line ctx.reply_out
              (Printf.sprintf "ERR %d %s %s" index
                 (if transient then "T" else "P")
                 (Checksum.hex_of_string reason)));
          loop ()
        | _ -> loop () (* malformed command: skip, stay alive *))
      | _ -> loop ())
  in
  loop ()

(* --- spawners ------------------------------------------------------------ *)

(* The coordinator's end of one worker: its pid (death is authoritative via
   waitpid) and the parent ends of its command and reply pipes. *)
type link = { pid : int; cmd : Unix.file_descr; reply : Unix.file_descr }

type spawner = wid:int -> journal:string -> link

let make_pipes () =
  let cmd_r, cmd_w = Unix.pipe () in
  let reply_r, reply_w = Unix.pipe () in
  (* Parent ends must not leak into workers spawned later: a worker holding
     a sibling's write end would keep that sibling's reply pipe open past
     its death.  (Only protects exec-based spawning; the fork spawner's
     coordinator relies on waitpid, not EOF, for death detection.) *)
  Unix.set_close_on_exec cmd_w;
  Unix.set_close_on_exec reply_r;
  (cmd_r, cmd_w, reply_r, reply_w)

let fork_spawner f : spawner =
 fun ~wid ~journal ->
  let cmd_r, cmd_w, reply_r, reply_w = make_pipes () in
  match Unix.fork () with
  | 0 ->
    Unix.close cmd_w;
    Unix.close reply_r;
    let ctx =
      {
        wid;
        journal;
        sweep = 0;
        replay = None;
        cmd_in = Unix.in_channel_of_descr cmd_r;
        reply_out = Unix.out_channel_of_descr reply_w;
      }
    in
    (match f ctx with () -> Unix._exit 0 | exception _ -> Unix._exit 71)
  | pid ->
    Unix.close cmd_r;
    Unix.close reply_w;
    { pid; cmd = cmd_w; reply = reply_r }

let reexec_argv : string list option ref = ref None
let set_reexec_argv args = reexec_argv := Some args
let reexec_available () = !reexec_argv <> None

let reexec_spawner ~sweep ~replay : spawner =
 fun ~wid ~journal ->
  let argv =
    match !reexec_argv with
    | Some a -> a
    | None -> invalid_arg "Procpool.reexec_spawner: set_reexec_argv not called"
  in
  let cmd_r, cmd_w, reply_r, reply_w = make_pipes () in
  let prog = Sys.executable_name in
  let args = Array.of_list (prog :: worker_arg :: argv) in
  let keep =
    Unix.environment () |> Array.to_list
    |> List.filter (fun kv ->
           not
             (String.length kv >= 10 && String.sub kv 0 10 = "PV_WORKER_"))
  in
  let env =
    Array.of_list
      (keep
      @ [
          Printf.sprintf "PV_WORKER_ID=%d" wid;
          Printf.sprintf "PV_WORKER_JOURNAL=%s" journal;
          Printf.sprintf "PV_WORKER_SWEEP=%d" sweep;
          Printf.sprintf "PV_WORKER_REPLAY=%s" (Option.value replay ~default:"");
        ])
  in
  let pid = Unix.create_process_env prog args env cmd_r reply_w Unix.stderr in
  Unix.close cmd_r;
  Unix.close reply_w;
  { pid; cmd = cmd_w; reply = reply_r }

(* --- coordinator -------------------------------------------------------- *)

type outcome =
  | Completed of { attempts : int }
  | Failed of { attempts : int; transient : bool; reason : string }


type wstate = {
  ws_wid : int;
  ws_journal : string;
  mutable ws_link : link option;  (* None: dead and not respawned *)
  ws_buf : Buffer.t;
  mutable ws_ready : bool;  (* sent RDY and has no inflight cell *)
  mutable ws_inflight : (int * int) option;  (* index, attempt *)
}

(* Write [line ^ "\n"], retrying short writes; [false] on a dead worker
   (EPIPE) — the death poll reaps it. *)
let send_line fd line =
  let data = line ^ "\n" in
  let len = String.length data in
  let rec go off =
    if off >= len then true
    else
      match Unix.write_substring fd data off (len - off) with
      | 0 -> false
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error _ -> false
  in
  go 0

let close_link l =
  (try Unix.close l.cmd with Unix.Unix_error _ -> ());
  try Unix.close l.reply with Unix.Unix_error _ -> ()

let journal_has path key =
  match Journal.load path with
  | records -> List.exists (fun (k, _) -> k = key) records
  | exception (Journal.Incompatible _ | Sys_error _) -> false

let run_jobs ?drain_timeout ~workers ~respawns ~retries ~scratch ~spawn
    ~(keys : string array) () =
  if workers < 1 then invalid_arg "Procpool.run_jobs: workers must be >= 1";
  let drain_timeout =
    match drain_timeout with Some t -> t | None -> default_drain_timeout ()
  in
  let n = Array.length keys in
  let outcomes : outcome option array = Array.make n None in
  if n = 0 then ([||], [])
  else begin
    let queue = Queue.create () in
    for i = 0 to n - 1 do
      Queue.add (i, 0) queue
    done;
    let old_sigpipe =
      try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
      with Invalid_argument _ -> None
    in
    let respawn_budget = ref respawns in
    let nworkers = min workers n in
    let journal_for wid =
      Filename.concat scratch (Printf.sprintf "worker-%d.journal" wid)
    in
    let pool =
      Array.init nworkers (fun wid ->
          let journal = journal_for wid in
          {
            ws_wid = wid;
            ws_journal = journal;
            ws_link = Some (spawn ~wid ~journal);
            ws_buf = Buffer.create 256;
            ws_ready = false;
            ws_inflight = None;
          })
    in
    let unresolved () = Array.exists (fun o -> o = None) outcomes in
    let resolve idx o = if outcomes.(idx) = None then outcomes.(idx) <- Some o in
    let fail_or_retry idx attempt ~transient ~reason =
      if transient && attempt < retries then Queue.add (idx, attempt + 1) queue
      else resolve idx (Failed { attempts = attempt + 1; transient; reason })
    in
    let handle_reply w line =
      match String.split_on_char ' ' line with
      | [ "RDY" ] -> w.ws_ready <- true
      | [ "OK"; idx ] -> (
        match int_of_string_opt idx with
        | Some i ->
          (match w.ws_inflight with
          | Some (j, attempt) when j = i ->
            resolve i (Completed { attempts = attempt + 1 });
            w.ws_inflight <- None;
            w.ws_ready <- true
          | _ -> resolve i (Completed { attempts = 1 }))
        | None -> ())
      | [ "ERR"; idx; cls; hexreason ] -> (
        match (int_of_string_opt idx, Checksum.string_of_hex hexreason) with
        | Some i, Some reason ->
          let transient = cls = "T" in
          let attempt =
            match w.ws_inflight with Some (j, a) when j = i -> a | _ -> 0
          in
          (match w.ws_inflight with
          | Some (j, _) when j = i ->
            w.ws_inflight <- None;
            w.ws_ready <- true
          | _ -> ());
          fail_or_retry i attempt ~transient ~reason
        | _ -> ())
      | _ -> ()
    in
    let drain_buffer w =
      let rec next () =
        let s = Buffer.contents w.ws_buf in
        match String.index_opt s '\n' with
        | None -> ()
        | Some nl ->
          let line = String.sub s 0 nl in
          Buffer.clear w.ws_buf;
          Buffer.add_string w.ws_buf (String.sub s (nl + 1) (String.length s - nl - 1));
          handle_reply w line;
          next ()
      in
      next ()
    in
    (* A partial line left in the buffer when the worker dies (a reply torn
       by a mid-write kill) is simply never completed by a newline —
       drain_buffer ignores it, so torn lines can never be misparsed. *)
    let read_some w =
      match w.ws_link with
      | None -> false
      | Some link -> (
        let b = Bytes.create 4096 in
        match Unix.read link.reply b 0 4096 with
        | 0 -> false
        | k ->
          Buffer.add_subbytes w.ws_buf b 0 k;
          drain_buffer w;
          true
        | exception Unix.Unix_error _ -> false)
    in
    let close w =
      Option.iter close_link w.ws_link;
      w.ws_link <- None
    in
    (* Arbitration of a death: drain raced replies, then decide the fate of
       the inflight cell — if its record made it into the worker's journal
       the work *happened* (a kill between journal append and reply loses
       nothing); an absent record is a lost transient attempt that re-queues
       under the retry budget. *)
    let reap_death w =
      (match w.ws_link with
      | Some l -> ( try Unix.set_nonblock l.reply with Unix.Unix_error _ -> ())
      | None -> ());
      let rec drain () = if read_some w then drain () in
      (try drain () with _ -> ());
      (match w.ws_inflight with
      | Some (idx, attempt) when outcomes.(idx) = None ->
        if journal_has w.ws_journal keys.(idx) then
          resolve idx (Completed { attempts = attempt + 1 })
        else
          fail_or_retry idx attempt ~transient:true
            ~reason:(Printexc.to_string (Fault.Killed { index = idx; attempt }))
      | _ -> ());
      w.ws_inflight <- None;
      w.ws_ready <- false;
      Buffer.clear w.ws_buf;
      close w
    in
    (* waitpid, not pipe EOF, is authoritative: fork-spawned siblings can
       hold a dead worker's reply pipe open. *)
    let poll_deaths () =
      Array.iter
        (fun w ->
          match w.ws_link with
          | None -> ()
          | Some link -> (
            match Unix.waitpid [ Unix.WNOHANG ] link.pid with
            | 0, _ -> ()
            | _ ->
              reap_death w;
              (* Respawn into the same slot (and the same journal: the fresh
                 worker's open_writer quarantines and truncates any torn
                 record — the production torn-write recovery path). *)
              if unresolved () && !respawn_budget > 0 then begin
                decr respawn_budget;
                w.ws_link <- Some (spawn ~wid:w.ws_wid ~journal:w.ws_journal)
              end
            | exception Unix.Unix_error (Unix.ECHILD, _, _) -> reap_death w
            | exception Unix.Unix_error _ -> ()))
        pool
    in
    let dispatch () =
      Array.iter
        (fun w ->
          match w.ws_link with
          | Some link
            when w.ws_ready && w.ws_inflight = None && not (Queue.is_empty queue) ->
            let idx, attempt = Queue.pop queue in
            if outcomes.(idx) <> None then ()
            else if
              send_line link.cmd
                (Printf.sprintf "RUN %d %d %s" idx attempt
                   (Checksum.hex_of_string keys.(idx)))
            then begin
              w.ws_ready <- false;
              w.ws_inflight <- Some (idx, attempt)
            end
            else (* dead pipe: requeue, the death poll will reap it *)
              Queue.add (idx, attempt) queue
          | _ -> ())
        pool
    in
    let select_replies () =
      let fds =
        Array.to_list pool |> List.filter_map (fun w -> Option.map (fun l -> l.reply) w.ws_link)
      in
      match Unix.select fds [] [] 0.2 with
      | readable, _, _ ->
        Array.iter
          (fun w ->
            match w.ws_link with
            | Some l when List.mem l.reply readable -> ignore (read_some w)
            | _ -> ())
          pool
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    in
    (* Main loop: runs until every cell has an outcome or every worker is
       dead with the respawn budget spent.  Invariant: every unresolved cell
       is queued or inflight on a live worker; reaping a death either
       requeues/resolves its inflight cell and respawns (budget permitting)
       or leaves the slot dead — so "unresolved but no live worker" is
       exactly the unrecoverable state. *)
    while unresolved () && Array.exists (fun w -> w.ws_link <> None) pool do
      poll_deaths ();
      dispatch ();
      select_replies ()
    done;
    (* Anything still unresolved lost its workers: fail it rather than hang. *)
    let exhausted attempts =
      Failed
        { attempts; transient = true; reason = "worker pool exhausted (respawn budget spent)" }
    in
    Queue.iter (fun (idx, attempt) -> resolve idx (exhausted attempt)) queue;
    Array.iteri (fun idx o -> if o = None then outcomes.(idx) <- Some (exhausted 0)) outcomes;
    (* Orderly shutdown: FIN, grace period, then SIGKILL stragglers (with a
       one-line warning naming the worker). *)
    Array.iter
      (fun w -> Option.iter (fun l -> ignore (send_line l.cmd "FIN")) w.ws_link)
      pool;
    let deadline = Unix.gettimeofday () +. drain_timeout in
    let rec wait_exits () =
      Array.iter
        (fun w ->
          match w.ws_link with
          | None -> ()
          | Some l -> (
            match Unix.waitpid [ Unix.WNOHANG ] l.pid with
            | 0, _ -> ()
            | _ | (exception Unix.Unix_error _) -> close w))
        pool;
      if Array.exists (fun w -> w.ws_link <> None) pool then
        if Unix.gettimeofday () > deadline then
          Array.iter
            (fun w ->
              match w.ws_link with
              | None -> ()
              | Some l ->
                Printf.eprintf
                  "procpool: warning: worker %d (pid %d) did not exit within %.1fs of \
                   FIN (PV_PROCPOOL_DRAIN_S); killing it\n%!"
                  w.ws_wid l.pid drain_timeout;
                (try Unix.kill l.pid Sys.sigkill with Unix.Unix_error _ -> ());
                (try ignore (Unix.waitpid [] l.pid) with Unix.Unix_error _ -> ());
                close w)
            pool
        else begin
          Unix.sleepf 0.02;
          wait_exits ()
        end
    in
    wait_exits ();
    (match old_sigpipe with
    | Some b -> ( try Sys.set_signal Sys.sigpipe b with Invalid_argument _ -> ())
    | None -> ());
    let final = Array.map Option.get outcomes in
    let journals = List.init nworkers journal_for |> List.filter Sys.file_exists in
    (final, journals)
  end
