(* Domain pool with an ordered job/result protocol over one shared FIFO.

   Every participant — each worker domain, plus the calling domain while it
   is inside [map] — takes jobs from a single mutex-guarded queue.
   Experiment cells cost milliseconds, so one lock per job costs nothing
   measurable.  A queued job never raises: [map]'s jobs catch every
   exception into their result slot.

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

let take t =
  Mutex.lock t.lock;
  let job = Queue.take_opt t.queue in
  Mutex.unlock t.lock;
  job

(* Run queued jobs on the calling domain until the queue is empty. *)
let rec help t =
  match take t with
  | Some job ->
    job ();
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
    job ();
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

let shutdown t =
  Mutex.lock t.lock;
  let was_closed = t.closed in
  t.closed <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.lock;
  (* Workers drain the queue before they exit, so no accepted job is lost. *)
  if not was_closed then Array.iter Domain.join t.domains

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
