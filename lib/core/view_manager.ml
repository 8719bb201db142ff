type t = {
  nnodes : int;
  oracle : ctx:int -> page:int -> bool;
  asid_ctx : (int, int) Hashtbl.t;
  isvs : (int, Isv.t) Hashtbl.t;
  dsvmts : (int, Dsvmt.t) Hashtbl.t;
}

let create ~nnodes ~oracle =
  {
    nnodes;
    oracle;
    asid_ctx = Hashtbl.create 8;
    isvs = Hashtbl.create 8;
    dsvmts = Hashtbl.create 8;
  }

let register t ~asid ~ctx ~isv =
  Hashtbl.replace t.asid_ctx asid ctx;
  Hashtbl.replace t.isvs ctx isv

let ctx_of_asid t asid = Hashtbl.find_opt t.asid_ctx asid

let isv_of_ctx t ctx = Hashtbl.find_opt t.isvs ctx

let dsvmt t ~ctx =
  match Hashtbl.find_opt t.dsvmts ctx with
  | Some d -> d
  | None ->
    let d = Dsvmt.create ~oracle:(fun ~page -> t.oracle ~ctx ~page) in
    Hashtbl.replace t.dsvmts ctx d;
    d

let invalidate_page t ~page =
  Hashtbl.iter (fun _ d -> Dsvmt.invalidate_page d ~page) t.dsvmts
