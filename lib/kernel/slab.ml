module Layout = Pv_isa.Layout

type mode = Shared | Secure

let size_classes = [| 8; 16; 32; 64; 128; 256; 512; 1024; 2048 |]

type page = {
  frame : int;
  cls : int; (* object size *)
  owners : Physmem.owner array; (* per-slot owner of live objects *)
  live : bool array;
  mutable inuse : int;
}

type domain_key = { dk_cls : int; dk_owner : Physmem.owner option }
(* [dk_owner = None] in Shared mode: one domain per class. *)

type t = {
  md : mode;
  phys : Physmem.t;
  pages : (int, page) Hashtbl.t; (* frame -> page *)
  partial : (domain_key, int list ref) Hashtbl.t; (* pages with free slots *)
  big : (int, int) Hashtbl.t; (* frame -> order, for oversize allocations *)
  mutable active_bytes : int;
  mutable frees : int;
  mutable page_returns : int;
  mutable peak_pages : int;
}

let create ~mode phys =
  {
    md = mode;
    phys;
    pages = Hashtbl.create 256;
    partial = Hashtbl.create 64;
    big = Hashtbl.create 16;
    active_bytes = 0;
    frees = 0;
    page_returns = 0;
    peak_pages = 0;
  }

let class_for size =
  Array.to_seq size_classes |> Seq.find (fun c -> c >= size)

let domain_key t cls owner =
  { dk_cls = cls; dk_owner = (match t.md with Shared -> None | Secure -> Some owner) }

let partial_list t key =
  match Hashtbl.find_opt t.partial key with
  | Some l -> l
  | None ->
    let l = ref [] in
    Hashtbl.replace t.partial key l;
    l

let slots_per_page cls = Layout.page_bytes / cls

let obj_va page slot = Physmem.frame_va page.frame + (slot * page.cls)

let new_page t cls owner =
  match Physmem.alloc_pages t.phys ~order:0 owner with
  | None -> None
  | Some frame ->
    let n = slots_per_page cls in
    let page =
      { frame; cls; owners = Array.make n Physmem.Unknown; live = Array.make n false; inuse = 0 }
    in
    Hashtbl.replace t.pages frame page;
    t.peak_pages <- max t.peak_pages (Hashtbl.length t.pages);
    Some page

let find_free_slot page =
  let n = Array.length page.live in
  let rec go i = if i = n then None else if not page.live.(i) then Some i else go (i + 1) in
  go 0

let alloc_in_page t page owner =
  match find_free_slot page with
  | None -> None
  | Some slot ->
    page.live.(slot) <- true;
    page.owners.(slot) <- owner;
    page.inuse <- page.inuse + 1;
    t.active_bytes <- t.active_bytes + page.cls;
    Some (obj_va page slot)

let kmalloc t ~owner ~size =
  if size <= 0 then invalid_arg "Slab.kmalloc: non-positive size";
  match class_for size with
  | None ->
    (* Oversize: whole pages straight from the buddy allocator. *)
    let pages_needed = (size + Layout.page_bytes - 1) / Layout.page_bytes in
    let rec order_for o = if 1 lsl o >= pages_needed then o else order_for (o + 1) in
    let order = order_for 0 in
    (match Physmem.alloc_pages t.phys ~order owner with
    | None -> None
    | Some frame ->
      Hashtbl.replace t.big frame order;
      Some (Physmem.frame_va frame))
  | Some cls -> (
    let key = domain_key t cls owner in
    let plist = partial_list t key in
    let rec try_pages = function
      | [] -> None
      | frame :: rest -> (
        match Hashtbl.find_opt t.pages frame with
        | None -> try_pages rest
        | Some page -> (
          match alloc_in_page t page owner with
          | Some va ->
            (* Drop the page from the partial list once it fills up. *)
            if page.inuse = slots_per_page cls then plist := List.filter (( <> ) frame) !plist;
            Some va
          | None ->
            plist := List.filter (( <> ) frame) !plist;
            try_pages rest))
    in
    match try_pages !plist with
    | Some va -> Some va
    | None -> (
      match new_page t cls owner with
      | None -> None
      | Some page -> (
        match alloc_in_page t page owner with
        | Some va ->
          if page.inuse < slots_per_page cls then plist := page.frame :: !plist;
          Some va
        | None -> None)))

let locate t va =
  match Physmem.frame_of_va va with
  | None -> None
  | Some frame -> (
    match Hashtbl.find_opt t.pages frame with
    | None -> None
    | Some page ->
      let off = va - Physmem.frame_va frame in
      if off mod page.cls <> 0 then None else Some (page, off / page.cls))

let kfree t va =
  match locate t va with
  | Some (page, slot) ->
    if not page.live.(slot) then invalid_arg "Slab.kfree: double free";
    page.live.(slot) <- false;
    page.inuse <- page.inuse - 1;
    t.active_bytes <- t.active_bytes - page.cls;
    t.frees <- t.frees + 1;
    (* Slot-reuse affinity: the freed slot's page moves to the front of its
       domain's partial list, so the next allocation refills it.  This is
       what keeps draining pages alive and page returns to the buddy
       allocator rare (paper 9.2 "Domain Reassignment"). *)
    if page.inuse > 0 then begin
      let owner =
        match Physmem.owner_of t.phys page.frame with
        | Some o -> o
        | None -> Physmem.Unknown
      in
      let plist = partial_list t (domain_key t page.cls owner) in
      plist := page.frame :: List.filter (( <> ) page.frame) !plist
    end;
    if page.inuse = 0 then begin
      (* Last object gone: the page returns to the buddy allocator and will
         need a domain reassignment when reused (paper §9.2). *)
      Hashtbl.remove t.pages page.frame;
      let owner =
        match Physmem.owner_of t.phys page.frame with
        | Some o -> o
        | None -> Physmem.Unknown
      in
      let key = domain_key t page.cls owner in
      (match Hashtbl.find_opt t.partial key with
      | Some l -> l := List.filter (( <> ) page.frame) !l
      | None -> ());
      Physmem.free_pages t.phys ~frame:page.frame ~order:0;
      t.page_returns <- t.page_returns + 1
    end
  | None -> (
    (* Maybe an oversize allocation. *)
    match Physmem.frame_of_va va with
    | Some frame when Hashtbl.mem t.big frame ->
      let order = Hashtbl.find t.big frame in
      Hashtbl.remove t.big frame;
      Physmem.free_pages t.phys ~frame ~order;
      t.frees <- t.frees + 1;
      t.page_returns <- t.page_returns + 1
    | Some _ | None -> invalid_arg "Slab.kfree: not a live slab object")

let shares_page_with_other_owner t va =
  match locate t va with
  | Some (page, slot) when page.live.(slot) ->
    let mine = page.owners.(slot) in
    let n = Array.length page.live in
    let rec go i =
      if i = n then false
      else if i <> slot && page.live.(i) && not (Physmem.owner_equal page.owners.(i) mine)
      then true
      else go (i + 1)
    in
    go 0
  | Some _ | None -> false

let active_bytes t = t.active_bytes

let slab_bytes t = Hashtbl.length t.pages * Layout.page_bytes

let utilization t =
  let total = slab_bytes t in
  if total = 0 then 1.0 else float_of_int t.active_bytes /. float_of_int total

let total_frees t = t.frees
let page_returns t = t.page_returns
let peak_pages t = t.peak_pages
