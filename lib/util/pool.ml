(* Domain pool with an ordered job/result protocol over one shared FIFO.

   Every participant — each worker domain, plus the calling domain while it
   is inside [map] or [shutdown] — takes jobs from a single mutex-guarded
   queue.  Experiment cells cost milliseconds, so one lock per job costs
   nothing measurable.

   Determinism: each job writes its result into a dedicated slot of a
   per-[map] results array, so scheduling order never influences result
   order, and exceptions are re-raised — lowest job index first — only after
   the whole batch has finished.  The queue decides only *where* a job runs,
   never what it computes or where its result lands. *)

type job = unit -> unit

type t = {
  lock : Mutex.t;
  work : Condition.t;  (* signalled on new work, batch completion, shutdown *)
  queue : job Queue.t;
  mutable closed : bool;
  mutable domains : unit Domain.t array;
}

let default_jobs () = Domain.recommended_domain_count ()

(* Runtime-fatal exceptions must not vanish: a sweep that silently survives
   Out_of_memory reports success on garbage.  Ordinary job exceptions keep
   the domain alive ([map]'s jobs capture their own; a raw [submit]ed
   closure that leaks one gets a once-per-process stderr warning). *)
let fatal = function Out_of_memory | Stack_overflow -> true | _ -> false

let warned = Atomic.make false

let run_isolated job =
  try job ()
  with e when not (fatal e) ->
    if not (Atomic.exchange warned true) then
      Printf.eprintf
        "pool: submitted job raised %s (swallowed; further warnings suppressed)\n%!"
        (Printexc.to_string e)

let take t =
  Mutex.lock t.lock;
  let job = Queue.take_opt t.queue in
  Mutex.unlock t.lock;
  job

(* Run queued jobs on the calling domain until the queue is empty. *)
let rec help t =
  match take t with
  | Some job ->
    run_isolated job;
    help t
  | None -> ()

(* Workers exit once the pool is closed and the queue drained. *)
let rec worker_loop t =
  Mutex.lock t.lock;
  while Queue.is_empty t.queue && not t.closed do
    Condition.wait t.work t.lock
  done;
  let job = Queue.take_opt t.queue in
  Mutex.unlock t.lock;
  match job with
  | Some job ->
    run_isolated job;
    worker_loop t
  | None -> ()

let create ~jobs =
  let wanted = max 1 jobs in
  let t =
    {
      lock = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      closed = false;
      domains = [||];
    }
  in
  (* The runtime caps the number of live domains (128 in OCaml 5.1).  Stop
     at the first refused spawn and run with what started: results do not
     depend on the pool size. *)
  let rec spawn acc k =
    if k = wanted then acc
    else
      match Domain.spawn (fun () -> worker_loop t) with
      | d -> spawn (d :: acc) (k + 1)
      | exception Failure _ ->
        Printf.eprintf "pool: started %d of %d domains\n%!" k wanted;
        acc
  in
  t.domains <- Array.of_list (List.rev (spawn [] 1));
  t

let size t = Array.length t.domains + 1

type 'b slot = Empty | Ok_r of 'b | Error_r of exn * Printexc.raw_backtrace

let map t f xs =
  if t.closed then invalid_arg "Pool.map: pool is shut down";
  match xs with
  | [] -> []
  | _ when Array.length t.domains = 0 -> List.map f xs (* the exact serial path *)
  | xs ->
    let items = Array.of_list xs in
    let n = Array.length items in
    let results = Array.make n Empty in
    let remaining = Atomic.make n in
    let job i () =
      results.(i) <-
        (try Ok_r (f items.(i)) with e -> Error_r (e, Printexc.get_raw_backtrace ()));
      if Atomic.fetch_and_add remaining (-1) = 1 then begin
        (* Last job of the batch: wake the caller if it is waiting. *)
        Mutex.lock t.lock;
        Condition.broadcast t.work;
        Mutex.unlock t.lock
      end
    in
    Mutex.lock t.lock;
    for i = 0 to n - 1 do
      Queue.push (job i) t.queue
    done;
    Condition.broadcast t.work;
    Mutex.unlock t.lock;
    (* The caller helps until the queue is empty, then waits for the jobs
       still in flight on workers. *)
    help t;
    Mutex.lock t.lock;
    while Atomic.get remaining > 0 do
      Condition.wait t.work t.lock
    done;
    Mutex.unlock t.lock;
    let collect i =
      match results.(i) with
      | Ok_r v -> v
      | Error_r (e, bt) -> Printexc.raise_with_backtrace e bt
      | Empty -> assert false
    in
    (* Re-raise the first failure in job order (collect is index-ordered). *)
    List.init n collect

(* --- supervised mapping ---------------------------------------------- *)

type classification = Transient | Permanent

type error = {
  exn : exn;
  backtrace : Printexc.raw_backtrace;
  classification : classification;
}

type 'b outcome = { result : ('b, error) result; attempts : int; elapsed : float }

let default_classify = function
  | Fault.Crashed _ | Fault.Killed _ -> Transient
  | _ -> Permanent

(* Deterministic backoff: a bounded busy-wait (doubling per attempt) rather
   than a sleep, so retry timing can neither deadlock a shutdown nor leak
   nondeterminism into anything observable. *)
let backoff_spin attempt =
  for _ = 1 to 1_000 * (1 lsl min attempt 10) do
    Domain.cpu_relax ()
  done

let map_results ?(retries = 0) ?(classify = default_classify) ?(fault = Fault.none)
    ?on_outcome t f xs =
  if retries < 0 then invalid_arg "Pool.map_results: negative retries";
  let attempt_one index x =
    let t0 = Unix.gettimeofday () in
    let rec go attempt =
      let res =
        match Fault.decide fault ~index ~attempt with
        | Some Fault.Crash ->
          Error (Fault.Crashed { index; attempt }, Printexc.get_callstack 8)
        | Some Fault.Kill ->
          (* A domain cannot be SIGKILLed on its own; in-process, Kill is a
             crash-shaped transient loss.  The real process death happens in
             a worker process under --workers (Supervise). *)
          Error (Fault.Killed { index; attempt }, Printexc.get_callstack 8)
        | Some Fault.Poison ->
          (* The job "completes" — burning the same work — but its result is
             rejected as corrupt. *)
          (match f x with _ -> () | exception _ -> ());
          Error (Fault.Poisoned { index; attempt }, Printexc.get_callstack 8)
        | Some Fault.Slow ->
          Fault.spin ();
          (try Ok (f x) with e -> Error (e, Printexc.get_raw_backtrace ()))
        | Some Fault.Livelock | None -> (
          (* Livelock is realized above the pool (fuel starvation); here the
             job just runs and the simulator's watchdog produces the error. *)
          try Ok (f x) with e -> Error (e, Printexc.get_raw_backtrace ()))
      in
      match res with
      | Ok v -> { result = Ok v; attempts = attempt + 1; elapsed = Unix.gettimeofday () -. t0 }
      | Error (exn, backtrace) ->
        let classification = classify exn in
        if classification = Transient && attempt < retries then begin
          backoff_spin attempt;
          go (attempt + 1)
        end
        else
          {
            result = Error { exn; backtrace; classification };
            attempts = attempt + 1;
            elapsed = Unix.gettimeofday () -. t0;
          }
    in
    let outcome = go 0 in
    (match on_outcome with
    | Some hook -> ( try hook index outcome with _ -> ())
    | None -> ());
    outcome
  in
  map t (fun (i, x) -> attempt_one i x) (List.mapi (fun i x -> (i, x)) xs)

let submit t job =
  Mutex.lock t.lock;
  if t.closed then begin
    Mutex.unlock t.lock;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  Queue.push job t.queue;
  Condition.broadcast t.work;
  Mutex.unlock t.lock

let shutdown t =
  Mutex.lock t.lock;
  let was_closed = t.closed in
  t.closed <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.lock;
  if not was_closed then begin
    (* Accepted jobs are never lost: the caller helps drain the queue
       (essential for fire-and-forget [submit]s on a pool of size 1, which
       has no worker domains), then joins the workers — who also drain
       before exiting.  A worker that died of a runtime-fatal exception
       re-raises it here. *)
    help t;
    Array.iter Domain.join t.domains
  end

let run ?(jobs = 1) f xs =
  if jobs <= 1 then List.map f xs
  else begin
    let t = create ~jobs in
    Fun.protect ~finally:(fun () -> shutdown t) (fun () -> map t f xs)
  end

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
