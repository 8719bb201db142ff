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
   newline or space into the framing.  Indices and attempts are strict
   decimals, and a line that does not parse is skipped; the coordinator
   counts an OK/ERR only for the replying worker's own in-flight cell.
   Results never travel inside the control protocol: the caller's worker
   body stores each value where the coordinator can find it before replying
   [OK], so a kill between that store and the reply loses only the reply,
   and the caller's [finished] predicate settles the cell when the corpse
   is reaped. *)

(* --- worker-side context ----------------------------------------------- *)

type ctx = { cmd_in : in_channel; reply_out : out_channel }

(* --- wire lines ------------------------------------------------------------ *)

type line =
  | Run of { index : int; attempt : int; key : string }
  | Fin
  | Rdy
  | Ok_ of int
  | Err of { index : int; transient : bool; reason : string }

let render_line = function
  | Run { index; attempt; key } ->
    Printf.sprintf "RUN %d %d %s" index attempt (Checksum.hex_of_string key)
  | Fin -> "FIN"
  | Rdy -> "RDY"
  | Ok_ index -> Printf.sprintf "OK %d" index
  | Err { index; transient; reason } ->
    Printf.sprintf "ERR %d %s %s" index
      (if transient then "T" else "P")
      (Checksum.hex_of_string reason)

let parse_line s =
  let num = Fault.parse_index in
  match String.split_on_char ' ' s with
  | [ "FIN" ] -> Some Fin
  | [ "RDY" ] -> Some Rdy
  | [ "RUN"; index; attempt; key ] -> (
    match (num index, num attempt, Checksum.string_of_hex key) with
    | Some index, Some attempt, Some key -> Some (Run { index; attempt; key })
    | _ -> None)
  | [ "OK"; index ] -> Option.map (fun i -> Ok_ i) (num index)
  | [ "ERR"; index; ("T" | "P" as cls); reason ] -> (
    match (num index, Checksum.string_of_hex reason) with
    | Some index, Some reason -> Some (Err { index; transient = cls = "T"; reason })
    | _ -> None)
  | _ -> None

(* --- worker-side serving ----------------------------------------------- *)

type verdict = Done | Fail of { transient : bool; reason : string }

let reply_line oc line =
  output_string oc (render_line line);
  output_char oc '\n';
  flush oc

(* [false] once the coordinator is gone: EOF on the command pipe, or a
   reply it can no longer read (EPIPE; workers inherit the coordinator's
   ignored SIGPIPE). *)
let serve ctx ~handle =
  let reply line =
    match reply_line ctx.reply_out line with () -> true | exception Sys_error _ -> false
  in
  let rec loop () =
    match input_line ctx.cmd_in with
    | exception End_of_file -> false
    | line -> (
      match parse_line line with
      | Some Fin -> true
      | Some (Run { index; attempt; key }) ->
        reply
          (match handle ~index ~attempt ~key with
          | Done -> Ok_ index
          | Fail { transient; reason } -> Err { index; transient; reason })
        && loop ()
      | _ -> loop () (* malformed command: skip, stay alive *))
  in
  reply Rdy && loop ()

(* --- forking workers ------------------------------------------------------ *)

(* The coordinator's end of one worker: its pid (death is authoritative via
   waitpid) and the parent ends of its command and reply pipes. *)
type link = { pid : int; cmd : Unix.file_descr; reply : Unix.file_descr }

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

let close_link l =
  close_fd l.cmd;
  close_fd l.reply

(* Fork one worker running [worker] on a fresh context.  Buffers are flushed
   first and the child leaves only through [_exit], so no coordinator buffer
   or [at_exit] handler runs twice.  The child closes [siblings], the parent
   ends of the other workers' pipes, so a dead coordinator leaves every
   worker at EOF on its command pipe. *)
let fork_worker ~worker ~siblings =
  let cmd_r, cmd_w = Unix.pipe () in
  let reply_r, reply_w =
    try Unix.pipe () with e -> List.iter close_fd [ cmd_r; cmd_w ]; raise e
  in
  flush_all ();
  match Unix.fork () with
  | 0 ->
    List.iter close_link siblings;
    Unix.close cmd_w;
    Unix.close reply_r;
    let ctx =
      { cmd_in = Unix.in_channel_of_descr cmd_r; reply_out = Unix.out_channel_of_descr reply_w }
    in
    Unix._exit (match worker ctx with () -> 0 | exception _ -> 71)
  | pid ->
    Unix.close cmd_r;
    Unix.close reply_w;
    { pid; cmd = cmd_w; reply = reply_r }
  | exception e ->
    List.iter close_fd [ cmd_r; cmd_w; reply_r; reply_w ];
    raise e

(* --- coordinator -------------------------------------------------------- *)

type outcome =
  | Completed of { attempts : int }
  | Failed of { attempts : int; transient : bool; reason : string }

type wstate = {
  ws_wid : int;
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

let run_jobs ?(drain_timeout = 10.0) ~workers ~respawns ~retries ~finished ~worker
    ~(keys : string array) () =
  if workers < 1 then invalid_arg "Procpool.run_jobs: workers must be >= 1";
  let n = Array.length keys in
  let outcomes : outcome option array = Array.make n None in
  if n = 0 then [||]
  else begin
    let queue = Queue.create () in
    for i = 0 to n - 1 do
      Queue.add (i, 0) queue
    done;
    let respawn_budget = ref respawns in
    let nworkers = min workers n in
    let pool =
      Array.init nworkers (fun wid ->
          {
            ws_wid = wid;
            ws_link = None;
            ws_buf = Buffer.create 256;
            ws_ready = false;
            ws_inflight = None;
          })
    in
    let spawn w =
      let siblings = Array.to_list pool |> List.filter_map (fun w -> w.ws_link) in
      w.ws_link <- Some (fork_worker ~worker ~siblings)
    in
    let close w =
      Option.iter close_link w.ws_link;
      w.ws_link <- None
    in
    let unresolved () = Array.exists (fun o -> o = None) outcomes in
    let resolve idx o = if outcomes.(idx) = None then outcomes.(idx) <- Some o in
    let fail_or_retry idx attempt ~transient ~reason =
      if transient && attempt < retries then Queue.add (idx, attempt + 1) queue
      else resolve idx (Failed { attempts = attempt + 1; transient; reason })
    in
    (* A reply counts only for the worker's own in-flight cell, which is
       always in range: a malformed line, an out-of-range index or another
       cell's index is dropped, never resolved. *)
    let handle_reply w line =
      match (parse_line line, w.ws_inflight) with
      | Some Rdy, _ -> w.ws_ready <- true
      | Some (Ok_ i), Some (j, attempt) when i = j ->
        w.ws_inflight <- None;
        w.ws_ready <- true;
        resolve i (Completed { attempts = attempt + 1 })
      | Some (Err { index; transient; reason }), Some (j, attempt) when index = j ->
        w.ws_inflight <- None;
        w.ws_ready <- true;
        fail_or_retry index attempt ~transient ~reason
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
    (* Arbitration of a death: drain raced replies, then decide the fate of
       the inflight cell — if [finished] finds its result the work
       *happened* (a kill between the store and the reply loses nothing);
       otherwise the attempt was lost, transiently, and re-queues under the
       retry budget. *)
    let reap_death w =
      (match w.ws_link with
      | Some l -> ( try Unix.set_nonblock l.reply with Unix.Unix_error _ -> ())
      | None -> ());
      let rec drain () = if read_some w then drain () in
      (try drain () with _ -> ());
      (match w.ws_inflight with
      | Some (idx, attempt) when outcomes.(idx) = None ->
        if finished idx then
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
              (* Respawn into the same slot, budget permitting. *)
              if unresolved () && !respawn_budget > 0 then begin
                decr respawn_budget;
                spawn w
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
              send_line link.cmd (render_line (Run { index = idx; attempt; key = keys.(idx) }))
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
    (* Orderly shutdown: FIN, grace period, then SIGKILL stragglers (with a
       one-line warning naming the worker). *)
    let shutdown () =
      Array.iter
        (fun w -> Option.iter (fun l -> ignore (send_line l.cmd (render_line Fin))) w.ws_link)
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
                Option.iter
                  (fun l ->
                    Printf.eprintf
                      "procpool: warning: worker %d (pid %d) did not exit within %.1fs \
                       of FIN; killing it\n%!"
                      w.ws_wid l.pid drain_timeout)
                  w.ws_link)
              pool
          else begin
            Unix.sleepf 0.02;
            wait_exits ()
          end
      in
      wait_exits ()
    in
    (* Whatever is still alive when run_jobs leaves — stragglers after the
       grace period, or every worker when a fork or the loop raised — is
       SIGKILLed and reaped, so no worker outlives the call. *)
    let kill_all () =
      Array.iter
        (fun w ->
          Option.iter
            (fun l ->
              (try Unix.kill l.pid Sys.sigkill with Unix.Unix_error _ -> ());
              try ignore (Unix.waitpid [] l.pid) with Unix.Unix_error _ -> ())
            w.ws_link;
          close w)
        pool
    in
    let old_sigpipe =
      try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
      with Invalid_argument _ -> None
    in
    Fun.protect
      ~finally:(fun () ->
        kill_all ();
        match old_sigpipe with
        | Some b -> ( try Sys.set_signal Sys.sigpipe b with Invalid_argument _ -> ())
        | None -> ())
      (fun () ->
        Array.iter spawn pool;
        (* Main loop: runs until every cell has an outcome or every worker
           is dead with the respawn budget spent.  Invariant: every
           unresolved cell is queued or inflight on a live worker; reaping
           a death either requeues/resolves its inflight cell and respawns
           (budget permitting) or leaves the slot dead — so "unresolved but
           no live worker" is exactly the unrecoverable state. *)
        while unresolved () && Array.exists (fun w -> w.ws_link <> None) pool do
          poll_deaths ();
          dispatch ();
          select_replies ()
        done;
        (* Anything still unresolved lost its workers: fail it rather than
           hang. *)
        let exhausted attempts =
          Failed
            {
              attempts;
              transient = true;
              reason = "worker pool exhausted (respawn budget spent)";
            }
        in
        Queue.iter (fun (idx, attempt) -> resolve idx (exhausted attempt)) queue;
        Array.iteri (fun idx o -> if o = None then outcomes.(idx) <- Some (exhausted 0)) outcomes;
        shutdown ();
        Array.map Option.get outcomes)
  end
