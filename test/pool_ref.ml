(* Frozen copy of the pre-work-stealing shared-queue pool.

   Kept verbatim (minus supervised mapping, which is scheduler-agnostic) as
   the semantic oracle for test_matches_reference_pool: the work-stealing
   pool must compute exactly what this scheduler computes.  Do not "improve"
   this file — its value is that it does not change. *)

type job = unit -> unit

type t = {
  size : int;
  lock : Mutex.t;
  work : Condition.t;
  pending : job Queue.t;
  mutable closed : bool;
  mutable domains : unit Domain.t array;
}

let rec worker_loop t =
  Mutex.lock t.lock;
  let rec next () =
    if not (Queue.is_empty t.pending) then Some (Queue.pop t.pending)
    else if t.closed then None
    else begin
      Condition.wait t.work t.lock;
      next ()
    end
  in
  match next () with
  | None -> Mutex.unlock t.lock
  | Some job ->
    Mutex.unlock t.lock;
    (try job () with _ -> ());
    worker_loop t

let create ~jobs =
  let size = max 1 jobs in
  let t =
    {
      size;
      lock = Mutex.create ();
      work = Condition.create ();
      pending = Queue.create ();
      closed = false;
      domains = [||];
    }
  in
  t.domains <- Array.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let size t = t.size

type 'b slot = Empty | Ok_r of 'b | Error_r of exn * Printexc.raw_backtrace

let map t f xs =
  if t.closed then invalid_arg "Pool_ref.map: pool is shut down";
  match xs with
  | [] -> []
  | _ when t.size = 1 -> List.map f xs
  | xs ->
    let items = Array.of_list xs in
    let n = Array.length items in
    let results = Array.make n Empty in
    let remaining = Atomic.make n in
    let job i () =
      (results.(i) <-
        (try Ok_r (f items.(i))
         with e -> Error_r (e, Printexc.get_raw_backtrace ())));
      if Atomic.fetch_and_add remaining (-1) = 1 then begin
        Mutex.lock t.lock;
        Condition.broadcast t.work;
        Mutex.unlock t.lock
      end
    in
    Mutex.lock t.lock;
    for i = 0 to n - 1 do
      Queue.push (job i) t.pending
    done;
    Condition.broadcast t.work;
    Mutex.unlock t.lock;
    let rec help () =
      Mutex.lock t.lock;
      let j = if Queue.is_empty t.pending then None else Some (Queue.pop t.pending) in
      Mutex.unlock t.lock;
      match j with
      | Some job ->
        (try job () with _ -> ());
        help ()
      | None -> ()
    in
    help ();
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
    List.init n collect

let shutdown t =
  Mutex.lock t.lock;
  let was_closed = t.closed in
  t.closed <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.lock;
  if not was_closed then begin
    let rec drain () =
      Mutex.lock t.lock;
      let j = if Queue.is_empty t.pending then None else Some (Queue.pop t.pending) in
      Mutex.unlock t.lock;
      match j with
      | Some job ->
        (try job () with _ -> ());
        drain ()
      | None -> ()
    in
    drain ();
    Array.iter Domain.join t.domains
  end

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
