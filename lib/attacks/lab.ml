module Physmem = Pv_kernel.Physmem
module Mem = Pv_isa.Mem
module Memsys = Pv_uarch.Memsys
module Pipeline = Pv_uarch.Pipeline
module Defense = Perspective.Defense
module View_manager = Perspective.View_manager
module Isv = Perspective.Isv
module Bitset = Pv_util.Bitset

type t = {
  phys : Physmem.t;
  mem : Mem.t;
  ms : Memsys.t;
  pipe : Pipeline.t;
  node_of_fid : int -> int option;
  nnodes : int;
  mutable defense : Defense.t option;
}

let create ~prog ~node_of_fid ~nnodes ?(frames = 1024) ?(trace = false) ~seed () =
  ignore seed;
  let phys = Physmem.create ~frames in
  let mem = Mem.create () in
  let ms = Memsys.create mem in
  let config =
    if trace then
      { Pipeline.default_config with trace_events = true; trace_capacity = 65536 }
    else Pipeline.default_config
  in
  let pipe = Pipeline.create ~config ms prog in
  { phys; mem; ms; pipe; node_of_fid; nnodes; defense = None }

let phys t = t.phys
let mem t = t.mem
let memsys t = t.ms
let pipeline t = t.pipe

let alloc t ~owner ~count =
  List.init count (fun _ ->
      match Physmem.alloc_pages t.phys ~order:0 owner with
      | Some f -> Physmem.frame_va f
      | None -> failwith "Lab.alloc: out of frames")

let install t ~scheme ~views =
  let oracle ~ctx ~page =
    match Physmem.owner_of t.phys page with
    | Some (Physmem.Cgroup c) -> c = ctx
    | Some Physmem.Kernel | Some Physmem.Unknown | None -> false
  in
  let vm = View_manager.create ~nnodes:t.nnodes ~oracle in
  List.iter
    (fun (asid, ctx, nodes) ->
      let kind =
        match scheme with
        | Defense.Perspective k -> k
        | Defense.Unsafe | Defense.Fence | Defense.Dom | Defense.Stt
        | Defense.Safespec | Defense.Specbox ->
          Isv.All
      in
      View_manager.register vm ~asid ~ctx ~isv:(Isv.of_nodes kind nodes))
    views;
  let d =
    Defense.build ~scheme ~vm ~node_of_fid:t.node_of_fid ~block_unknown:true
      ~memsys:t.ms ()
  in
  t.defense <- Some d;
  Pipeline.set_guard t.pipe (Defense.guard d)

let defense t = t.defense

let flush t va = Memsys.flush_line t.ms va

let warm t va = ignore (Memsys.data_read t.ms va)

let warm_code t ~asid va =
  ignore (Memsys.inst_read t.ms (Pv_isa.Layout.phys_key ~asid va))

type outcome = {
  scheme : string;
  secret : int;
  leaked : int option;
  success : bool;
  fences : int;
  hot_slot_count : int;
}

(* Anything faster than an L2 round trip counts as a cache hit for the
   reload decoder. *)
let hit_threshold = 9

let readout t ~scheme ~secret ~fences ~transmit =
  let hot = ref [] in
  for s = 255 downto 0 do
    if Memsys.reload_latency t.ms (transmit + (s * 64)) < hit_threshold then hot := s :: !hot
  done;
  let leaked = match !hot with [ s ] -> Some s | _ -> None in
  {
    scheme = Defense.scheme_name scheme;
    secret;
    leaked;
    success = leaked = Some secret;
    fences;
    hot_slot_count = List.length !hot;
  }

let store t va v = Mem.store t.mem va v

let load t va = Mem.load t.mem va
