(* Wall-clock spans recorded by the benchmark around its calls into each
   library layer.  Spans live in memory and are written out once at the end
   of a traced pass.  The traced pass runs at -j 1, where every cell runs on
   the calling domain, so one global stack of open spans is enough.

   A span name is "<layer>/<operation>"; the layer is the library the call
   enters (pv_uarch, pv_sim, ...), so self times aggregate per layer. *)

type t = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** id of the enclosing span, -1 at the top level *)
  cell : string;  (** key of the sweep cell being executed, "" outside cells *)
}

let next_id = ref 0
let open_stack : int list ref = ref []
let current_cell = ref ""
let closed : t list ref = ref []

let reset () =
  next_id := 0;
  open_stack := [];
  current_cell := "";
  closed := []

let with_ ?cell name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_stack with p :: _ -> p | [] -> -1 in
  let outer_cell = !current_cell in
  Option.iter (fun k -> current_cell := k) cell;
  open_stack := id :: !open_stack;
  let start = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let stop = Unix.gettimeofday () in
      open_stack := List.tl !open_stack;
      closed := { id; name; start; stop; parent; cell = !current_cell } :: !closed;
      current_cell := outer_cell)
    f

(* Spans in the order they were opened. *)
let all () = List.sort (fun a b -> compare a.id b.id) !closed

let layer s =
  match String.index_opt s.name '/' with
  | Some i -> String.sub s.name 0 i
  | None -> s.name

let duration s = s.stop -. s.start

(* A span's self time is its duration minus the time its direct children
   cover.  Returns (span, self seconds) for every span. *)
let self_times spans =
  let child_time = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (duration s +. Option.value (Hashtbl.find_opt child_time s.parent) ~default:0.0))
    spans;
  List.map
    (fun s -> (s, duration s -. Option.value (Hashtbl.find_opt child_time s.id) ~default:0.0))
    spans

(* Sum of self times per key, in first-seen order. *)
let sum_by key spans =
  let order = ref [] and tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let k = key s in
      match Hashtbl.find_opt tbl k with
      | Some v -> Hashtbl.replace tbl k (v +. self)
      | None ->
        order := k :: !order;
        Hashtbl.replace tbl k self)
    (self_times spans);
  List.rev_map (fun k -> (k, Hashtbl.find tbl k)) !order

let to_json spans =
  Json.Arr
    (List.map
       (fun s ->
         Json.Obj
           [
             ("id", Json.Num (float_of_int s.id));
             ("name", Json.Str s.name);
             ("start", Json.Num s.start);
             ("end", Json.Num s.stop);
             ("parent", Json.Num (float_of_int s.parent));
             ("cell", Json.Str s.cell);
           ])
       spans)
