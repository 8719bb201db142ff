module Guard = Pv_uarch.Guard
module Layout = Pv_isa.Layout

type scheme =
  | Unsafe
  | Fence
  | Dom
  | Stt
  | Perspective of Isv.kind
  | Safespec
  | Specbox

let scheme_name = function
  | Unsafe -> "UNSAFE"
  | Fence -> "FENCE"
  | Dom -> "DOM"
  | Stt -> "STT"
  | Perspective Isv.Static -> "PERSPECTIVE-STATIC"
  | Perspective Isv.Dynamic -> "PERSPECTIVE"
  | Perspective Isv.Plus -> "PERSPECTIVE++"
  | Perspective Isv.All -> "PERSPECTIVE-ALL"
  | Safespec -> "SAFESPEC"
  | Specbox -> "SPECBOX"

let all_schemes =
  [
    Unsafe;
    Fence;
    Dom;
    Stt;
    Perspective Isv.All;
    Perspective Isv.Static;
    Perspective Isv.Dynamic;
    Perspective Isv.Plus;
    Safespec;
    Specbox;
  ]

type t = {
  scheme : scheme;
  guard : Guard.t;
  isv_cache : Svcache.t;
  dsv_cache : Svcache.t;
  isv_pages : Isv_pages.t;
  vm : View_manager.t;
  shadow : Shadow.t option;
}

let isv_key_of_va va = va / Layout.line_bytes

let dsv_key_of_page page = page

let perspective_guard ~vm ~node_of_fid ~block_unknown ~isv_cache ~dsv_cache ~isv_pages
    name =
  let dsv_check q ctx =
    match Layout.pa_of_direct_map q.Guard.addr with
    | Some pa -> (
      let page = pa / Layout.page_bytes in
      let key = dsv_key_of_page page in
      match Svcache.lookup dsv_cache ~asid:q.Guard.asid key with
      | Svcache.Hit true -> Guard.Allow
      | Svcache.Hit false -> Guard.Block Guard.Dsv
      | Svcache.Miss ->
        (* DSVMT walk + refill; the miss itself conservatively fences. *)
        let bit = Dsvmt.walk (View_manager.dsvmt vm ~ctx) ~page in
        Svcache.install ~speculative:q.Guard.speculative dsv_cache ~asid:q.Guard.asid
          key bit;
        Guard.Block Guard.Dsv)
    | None ->
      (* Not direct-map memory: either an "unknown" allocation (globals,
         boot-time per-cpu areas) or a wild address.  No DSV covers it. *)
      if q.Guard.addr >= Layout.kernel_global_base then
        if block_unknown then Guard.Block Guard.Dsv else Guard.Allow
      else Guard.Block Guard.Dsv
  in
  let check q =
    if (not q.Guard.kernel_mode) || not q.Guard.speculative then Guard.Allow
    else
      match View_manager.ctx_of_asid vm q.Guard.asid with
      | None ->
        (* Unregistered context: no views installed, fence conservatively. *)
        Guard.Block Guard.Isv
      | Some ctx -> (
        let key = isv_key_of_va q.Guard.insn_va in
        let isv_membership () =
          match (View_manager.isv_of_ctx vm ctx, node_of_fid q.Guard.fid) with
          | Some isv, Some node -> Isv.member isv node
          | Some _, None -> false
          | None, _ -> false
        in
        match Svcache.lookup isv_cache ~asid:q.Guard.asid key with
        | Svcache.Hit true -> dsv_check q ctx
        | Svcache.Hit false -> Guard.Block Guard.Isv
        | Svcache.Miss ->
          (* Refill from the (demand-populated) ISV metadata page; the miss
             itself conservatively fences. *)
          let bit =
            Isv_pages.lookup isv_pages ~ctx ~insn_va:q.Guard.insn_va
              ~member:isv_membership
          in
          Svcache.install ~speculative:q.Guard.speculative isv_cache
            ~asid:q.Guard.asid key bit;
          Guard.Block Guard.Isv)
  in
  let notify_vp ~insn_va ~addr ~asid ~kernel_mode =
    if kernel_mode then begin
      Svcache.touch isv_cache ~asid (isv_key_of_va insn_va);
      match Layout.pa_of_direct_map addr with
      | Some pa -> Svcache.touch dsv_cache ~asid (dsv_key_of_page (pa / Layout.page_bytes))
      | None -> ()
    end
  in
  {
    Guard.name;
    check;
    notify_vp = Some notify_vp;
    spec_read = None;
    notify_squash = None;
    shadow_btb = false;
    holds_to_vp = false;
  }

(* A shadow guard never blocks: speculative loads execute against the shadow
   table ([spec_read]) and are promoted into the real hierarchy at the
   Visibility Point; a squash discards them ([notify_squash]). *)
let shadow_guard shadow name =
  {
    Guard.name;
    check = (fun _ -> Guard.Allow);
    notify_vp =
      Some
        (fun ~insn_va:_ ~addr ~asid ~kernel_mode:_ ->
          Shadow.promote shadow ~key:(Layout.phys_key ~asid addr) ~asid);
    spec_read = Some (fun ~key ~asid -> Shadow.spec_read shadow ~key ~asid);
    notify_squash = Some (fun ~asid -> Shadow.squash shadow ~asid);
    shadow_btb = true;
    holds_to_vp = false;
  }

let build ~scheme ~vm ~node_of_fid ~block_unknown ?(isv_cache_entries = 128)
    ?(dsv_cache_entries = 128) ?memsys () =
  let isv_cache = Svcache.create ~entries:isv_cache_entries ~name:"ISV cache" () in
  let dsv_cache = Svcache.create ~entries:dsv_cache_entries ~name:"DSV cache" () in
  let isv_pages = Isv_pages.create () in
  let shadow_of mode =
    match memsys with
    | Some ms -> Shadow.create ~mode ms
    | None ->
      invalid_arg
        (Printf.sprintf "Defense.build: scheme %s needs ~memsys (shadow structures probe the real hierarchy)"
           (scheme_name scheme))
  in
  let shadow =
    match scheme with
    | Safespec -> Some (shadow_of Shadow.Shared)
    | Specbox -> Some (shadow_of Shadow.Labeled)
    | Unsafe | Fence | Dom | Stt | Perspective _ -> None
  in
  let guard =
    match scheme with
    | Unsafe -> Guard.allow_all
    | Fence ->
      {
        Guard.name = "fence";
        check =
          (fun q -> if q.Guard.speculative then Guard.Block Guard.Baseline else Guard.Allow);
        notify_vp = None;
        spec_read = None;
        notify_squash = None;
        shadow_btb = false;
        holds_to_vp = true;
      }
    | Dom ->
      {
        Guard.name = "dom";
        check =
          (fun q ->
            if q.Guard.speculative && not q.Guard.l1_hit then Guard.Block Guard.Baseline
            else Guard.Allow);
        notify_vp = None;
        spec_read = None;
        notify_squash = None;
        shadow_btb = false;
        holds_to_vp = false;
      }
    | Stt ->
      {
        Guard.name = "stt";
        check =
          (fun q -> if q.Guard.tainted then Guard.Block Guard.Baseline else Guard.Allow);
        notify_vp = None;
        spec_read = None;
        notify_squash = None;
        shadow_btb = false;
        holds_to_vp = false;
      }
    | Perspective _ ->
      perspective_guard ~vm ~node_of_fid ~block_unknown ~isv_cache ~dsv_cache
        ~isv_pages (scheme_name scheme)
    | Safespec | Specbox -> (
      match shadow with
      | Some sh -> shadow_guard sh (String.lowercase_ascii (scheme_name scheme))
      | None -> assert false)
  in
  { scheme; guard; isv_cache; dsv_cache; isv_pages; vm; shadow }

let guard t = t.guard
let isv_cache t = t.isv_cache
let dsv_cache t = t.dsv_cache

let isv_pages t = t.isv_pages

let view_manager t = t.vm

let note_freed_page t ~page =
  Svcache.invalidate t.dsv_cache (dsv_key_of_page page);
  View_manager.invalidate_page t.vm ~page

let note_view_changed t ~insn_va =
  let page_base = insn_va land lnot (Layout.page_bytes - 1) in
  for line = 0 to (Layout.page_bytes / Layout.line_bytes) - 1 do
    Svcache.invalidate t.isv_cache (isv_key_of_va (page_base + (line * Layout.line_bytes)))
  done;
  Isv_pages.invalidate_page t.isv_pages ~code_page_va:insn_va
