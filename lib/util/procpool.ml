(* Coordinator/worker process pool.  See procpool.mli for the execution
   model; this file is deliberately mechanical — what a cell *is* and how
   an attempt is made live in the experiment layer (Supervise), which hands
   [map] its attempt function and stores the values it passes back.

   Frames over two pipes per worker, both marshalled:

     coordinator -> worker   (index, attempt)
     worker -> coordinator   Ok value | Error (transient, reason)

   A worker has at most one attempt in flight, so each pipe holds at most
   one frame at a time. *)

(* The coordinator's end of one worker: its pid, the parent ends of its
   command and result pipes, and the result frame read so far, the first
   [fill] bytes of [buf]. *)
type worker = {
  pid : int;
  cmd : Unix.file_descr;
  result : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable fill : int;
}

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

let close_worker w =
  close_fd w.cmd;
  close_fd w.result

(* The worker's loop: make each attempt it is sent and write its result
   back as one frame, until its command pipe reaches EOF — the coordinator
   closed it or died.  A result it cannot write (EPIPE: the coordinator is
   gone) raises, and the worker exits. *)
let serve ~attempt cmd result =
  let ic = Unix.in_channel_of_descr cmd and oc = Unix.out_channel_of_descr result in
  let rec loop () =
    match (Marshal.from_channel ic : int * int) with
    | exception End_of_file -> ()
    | index, n ->
      Marshal.to_channel oc (attempt ~index ~attempt:n) [];
      flush oc;
      loop ()
  in
  loop ()

(* Fork one worker.  Buffers are flushed first and the child leaves only
   through [_exit], so no coordinator buffer or [at_exit] handler runs
   twice.  The child closes [siblings], the parent ends of the other
   workers' pipes, so a dead coordinator leaves every worker at EOF on its
   command pipe, and unable to write a result. *)
let fork_worker ~attempt ~siblings =
  let cmd_r, cmd_w = Unix.pipe () in
  let res_r, res_w =
    try Unix.pipe () with e -> List.iter close_fd [ cmd_r; cmd_w ]; raise e
  in
  flush_all ();
  match Unix.fork () with
  | 0 ->
    List.iter close_worker siblings;
    Unix.close cmd_w;
    Unix.close res_r;
    Unix._exit (match serve ~attempt cmd_r res_w with () -> 0 | exception _ -> 71)
  | pid ->
    Unix.close cmd_r;
    Unix.close res_w;
    { pid; cmd = cmd_w; result = res_r; buf = Bytes.create 4096; fill = 0 }
  | exception e ->
    List.iter close_fd [ cmd_r; cmd_w; res_r; res_w ];
    raise e

(* A command is a few bytes into a pipe the worker has emptied, so it goes
   in one write.  The write fails only once the worker is dead, and its EOF
   then shows on the result pipe. *)
let send w (index, attempt) =
  let frame = Marshal.to_string (index, attempt) [] in
  try ignore (Unix.write_substring w.cmd frame 0 (String.length frame))
  with Unix.Unix_error _ -> ()

(* Read what the result pipe holds: [`Eof] once the worker is dead,
   [`Frame] once the whole frame is in, else [`More].  The frame's size is
   read from its header, and the buffer grows to it once, so the bytes are
   never re-copied read by read. *)
let receive w =
  match Unix.read w.result w.buf w.fill (Bytes.length w.buf - w.fill) with
  | 0 -> `Eof
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> `More
  | exception Unix.Unix_error _ -> `Eof
  | k ->
    w.fill <- w.fill + k;
    if w.fill < Marshal.header_size then `More
    else begin
      let size = Marshal.total_size w.buf 0 in
      if size > Bytes.length w.buf then begin
        let buf = Bytes.create size in
        Bytes.blit w.buf 0 buf 0 w.fill;
        w.buf <- buf
      end;
      if w.fill < size then `More
      else begin
        w.fill <- 0;
        `Frame (Marshal.from_bytes w.buf 0)
      end
    end

(* Close a worker's pipes, SIGKILL it and reap it.  A worker seen dead is
   killed harmlessly: it stays unreaped until [waitpid], so its pid cannot
   have been reused. *)
let stop w =
  close_worker w;
  (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ()

(* One worker slot: its live worker, if one has been forked since the last
   death, and the (index, attempt) that worker is making. *)
type slot = { mutable worker : worker option; mutable inflight : (int * int) option }

let map ~workers ~retries ~attempt ~on_value n =
  if workers < 1 then invalid_arg "Procpool.map: workers must be >= 1";
  let outcomes = Array.make n None in
  let queue = Queue.create () in
  for i = 0 to n - 1 do
    Queue.add (i, 0) queue
  done;
  let slots = Array.init (min workers n) (fun _ -> { worker = None; inflight = None }) in
  let live () = List.filter_map (fun s -> s.worker) (Array.to_list slots) in
  (* The end of an attempt: a value, or a failure that re-queues while it
     is transient and the cell has retries left. *)
  let settle (i, a) = function
    | Ok v ->
      on_value i v;
      outcomes.(i) <- Some (Ok v, a + 1)
    | Error (true, _) when a < retries -> Queue.add (i, a + 1) queue
    | Error (_, reason) -> outcomes.(i) <- Some (Error reason, a + 1)
  in
  let dispatch s =
    if s.inflight = None && not (Queue.is_empty queue) then begin
      let w =
        match s.worker with
        | Some w -> w
        | None ->
          let w = fork_worker ~attempt ~siblings:(live ()) in
          s.worker <- Some w;
          w
      in
      let job = Queue.pop queue in
      send w job;
      s.inflight <- Some job
    end
  in
  let on_readable s w =
    let job = s.inflight in
    match receive w with
    | `More -> ()
    | `Frame r ->
      s.inflight <- None;
      settle (Option.get job) r
    | `Eof ->
      stop w;
      s.worker <- None;
      s.inflight <- None;
      Option.iter
        (fun (index, attempt) ->
          settle (index, attempt)
            (Error (true, Printexc.to_string (Fault.Killed { index; attempt }))))
        job
  in
  let old_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> None
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun s -> Option.iter stop s.worker) slots;
      Option.iter
        (fun b -> try Sys.set_signal Sys.sigpipe b with Invalid_argument _ -> ())
        old_sigpipe)
    (fun () ->
      (* Every cell without an outcome is queued or in flight, and after
         [dispatch] the queue is empty or every slot busy: while a cell is
         open, some worker has an attempt in flight, whose frame or EOF
         the select waits for. *)
      while Array.exists Option.is_none outcomes do
        Array.iter dispatch slots;
        match Unix.select (List.map (fun w -> w.result) (live ())) [] [] (-1.0) with
        | ready, _, _ ->
          Array.iter
            (fun s ->
              match s.worker with
              | Some w when List.mem w.result ready -> on_readable s w
              | _ -> ())
            slots
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done;
      Array.map Option.get outcomes)
