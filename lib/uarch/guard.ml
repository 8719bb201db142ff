type query = {
  insn_va : int;
  fid : int;
  addr : int;
  asid : int;
  kernel_mode : bool;
  speculative : bool;
  l1_hit : bool;
  tainted : bool;
}

type source = Isv | Dsv | Baseline

type decision = Allow | Block of source

type t = {
  name : string;
  check : query -> decision;
  notify_vp : (insn_va:int -> addr:int -> asid:int -> kernel_mode:bool -> unit) option;
  spec_read : (key:int -> asid:int -> int) option;
  notify_squash : (asid:int -> unit) option;
  shadow_btb : bool;
  holds_to_vp : bool;
}

let allow_all =
  {
    name = "unsafe";
    check = (fun _ -> Allow);
    notify_vp = None;
    spec_read = None;
    notify_squash = None;
    shadow_btb = false;
    holds_to_vp = false;
  }
