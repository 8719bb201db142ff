module Layout = Pv_isa.Layout

type shadow = { bits : bool array; present : bool array }

type t = { pages : (int * int, shadow) Hashtbl.t (* (ctx, code page index) -> shadow *) }

let create () = { pages = Hashtbl.create 64 }

let bytes_per_page = Layout.max_insns_per_func / 8

let page_index va = va / Layout.page_bytes

let slot va = va mod Layout.page_bytes / Layout.insn_bytes

let lookup t ~ctx ~insn_va ~member =
  let key = (ctx, page_index insn_va) in
  let shadow =
    match Hashtbl.find_opt t.pages key with
    | Some s -> s
    | None ->
      let s =
        {
          bits = Array.make Layout.max_insns_per_func false;
          present = Array.make Layout.max_insns_per_func false;
        }
      in
      Hashtbl.replace t.pages key s;
      s
  in
  let i = slot insn_va in
  if shadow.present.(i) then shadow.bits.(i)
  else begin
    let b = member () in
    shadow.present.(i) <- true;
    shadow.bits.(i) <- b;
    b
  end

let invalidate_page t ~code_page_va =
  let page = page_index code_page_va in
  let stale =
    Hashtbl.fold
      (fun (ctx, p) _ acc -> if p = page then (ctx, p) :: acc else acc)
      t.pages []
  in
  List.iter (Hashtbl.remove t.pages) stale

let populated_pages t ~ctx =
  Hashtbl.fold (fun (c, _) _ acc -> if c = ctx then acc + 1 else acc) t.pages 0

let metadata_bytes t ~ctx = populated_pages t ~ctx * bytes_per_page
