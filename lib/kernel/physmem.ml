module Layout = Pv_isa.Layout

type owner = Kernel | Cgroup of int | Unknown

let owner_equal a b =
  match (a, b) with
  | Kernel, Kernel | Unknown, Unknown -> true
  | Cgroup x, Cgroup y -> x = y
  | (Kernel | Cgroup _ | Unknown), _ -> false

let max_order = 10

type frame_state =
  | Free_head of int (* order *)
  | Free_body
  | Alloc_head of int * owner
  | Alloc_body
  | Offline (* padding frames beyond the usable range *)

type t = {
  usable : int;
  pool : int; (* power-of-two pool size *)
  state : frame_state array;
  free_lists : (int, unit) Hashtbl.t array; (* per order: set of free block heads *)
  mutable free_count : int;
}

let rec pow2_at_least n p = if p >= n then p else pow2_at_least n (p * 2)

let create ~frames =
  if frames <= 0 then invalid_arg "Physmem.create: frames must be positive";
  let pool = pow2_at_least frames 1 in
  let t =
    {
      usable = frames;
      pool;
      state = Array.make pool Offline;
      free_lists = Array.init (max_order + 1) (fun _ -> Hashtbl.create 64);
      free_count = 0;
    }
  in
  (* Seed the free lists with maximal aligned blocks covering the usable
     range. *)
  let rec seed frame =
    if frame < frames then begin
      let rec largest o =
        if o = 0 then 0
        else if
          frame land ((1 lsl o) - 1) = 0
          && frame + (1 lsl o) <= frames
          && o <= max_order
        then o
        else largest (o - 1)
      in
      let o = largest max_order in
      t.state.(frame) <- Free_head o;
      for i = frame + 1 to frame + (1 lsl o) - 1 do
        t.state.(i) <- Free_body
      done;
      Hashtbl.replace t.free_lists.(o) frame ();
      t.free_count <- t.free_count + (1 lsl o);
      seed (frame + (1 lsl o))
    end
  in
  seed 0;
  t

let free_frames t = t.free_count

let take_any tbl = Hashtbl.fold (fun k () acc -> match acc with None -> Some k | s -> s) tbl None

let rec pop_block t order =
  if order > max_order then None
  else
    match take_any t.free_lists.(order) with
    | Some frame ->
      Hashtbl.remove t.free_lists.(order) frame;
      Some (frame, order)
    | None -> pop_block t (order + 1)

let alloc_pages t ~order owner =
  if order < 0 || order > max_order then invalid_arg "Physmem.alloc_pages: bad order";
  match pop_block t order with
  | None -> None
  | Some (frame, got) ->
    (* Split down to the requested order, returning upper halves. *)
    let o = ref got in
    while !o > order do
      decr o;
      let buddy = frame + (1 lsl !o) in
      t.state.(buddy) <- Free_head !o;
      for i = buddy + 1 to buddy + (1 lsl !o) - 1 do
        t.state.(i) <- Free_body
      done;
      Hashtbl.replace t.free_lists.(!o) buddy ()
    done;
    t.state.(frame) <- Alloc_head (order, owner);
    for i = frame + 1 to frame + (1 lsl order) - 1 do
      t.state.(i) <- Alloc_body
    done;
    t.free_count <- t.free_count - (1 lsl order);
    Some frame

let free_pages t ~frame ~order =
  (match t.state.(frame) with
  | Alloc_head (o, _) when o = order -> ()
  | Alloc_head (o, _) ->
    invalid_arg (Printf.sprintf "Physmem.free_pages: order mismatch (%d vs %d)" o order)
  | Free_head _ | Free_body -> invalid_arg "Physmem.free_pages: double free"
  | Alloc_body -> invalid_arg "Physmem.free_pages: not a block head"
  | Offline -> invalid_arg "Physmem.free_pages: offline frame");
  t.free_count <- t.free_count + (1 lsl order);
  (* Coalesce with free buddies as far as possible. *)
  let rec merge frame order =
    if order >= max_order then (frame, order)
    else
      let buddy = frame lxor (1 lsl order) in
      if
        buddy + (1 lsl order) <= t.pool
        && (match t.state.(buddy) with Free_head o when o = order -> true | _ -> false)
      then begin
        Hashtbl.remove t.free_lists.(order) buddy;
        let lo = min frame buddy in
        let hi = max frame buddy in
        t.state.(hi) <- Free_body;
        merge lo (order + 1)
      end
      else (frame, order)
  in
  t.state.(frame) <- Free_head order;
  for i = frame + 1 to frame + (1 lsl order) - 1 do
    t.state.(i) <- Free_body
  done;
  let f, o = merge frame order in
  t.state.(f) <- Free_head o;
  Hashtbl.replace t.free_lists.(o) f ()

let rec head_of t frame =
  if frame < 0 then None
  else
    match t.state.(frame) with
    | Alloc_head (o, owner) -> Some (frame, o, owner)
    | Alloc_body -> head_of t (frame - 1)
    | Free_head _ | Free_body | Offline -> None

let owner_of t frame =
  if frame < 0 || frame >= t.usable then None
  else
    match head_of t frame with
    | Some (head, o, owner) when frame < head + (1 lsl o) -> Some owner
    | Some _ | None -> None

let frame_va f = Layout.direct_map_va (f * Layout.page_bytes)

let frame_of_va va =
  match Layout.pa_of_direct_map va with
  | Some pa -> Some (pa / Layout.page_bytes)
  | None -> None
