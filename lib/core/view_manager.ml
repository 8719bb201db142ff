module Inttbl = Pv_util.Inttbl

type t = {
  nnodes : int;
  oracle : ctx:int -> page:int -> bool;
  asid_ctx : int Inttbl.t;
  isvs : Isv.t Inttbl.t;
  dsvmts : Dsvmt.t Inttbl.t;
}

let create ~nnodes ~oracle =
  {
    nnodes;
    oracle;
    asid_ctx = Inttbl.create 8;
    isvs = Inttbl.create 8;
    dsvmts = Inttbl.create 8;
  }

let register t ~asid ~ctx ~isv =
  Inttbl.replace t.asid_ctx asid ctx;
  Inttbl.replace t.isvs ctx isv

let ctx_of_asid t asid = Inttbl.find_opt t.asid_ctx asid

let isv_of_ctx t ctx = Inttbl.find_opt t.isvs ctx

let dsvmt t ~ctx =
  match Inttbl.find_opt t.dsvmts ctx with
  | Some d -> d
  | None ->
    let d = Dsvmt.create ~oracle:(fun ~page -> t.oracle ~ctx ~page) in
    Inttbl.replace t.dsvmts ctx d;
    d

let invalidate_page t ~page =
  Inttbl.iter (fun _ d -> Dsvmt.invalidate_page d ~page) t.dsvmts
