module Physmem = Pv_kernel.Physmem
module Mem = Pv_isa.Mem
module Memsys = Pv_uarch.Memsys
module Pipeline = Pv_uarch.Pipeline
module Defense = Perspective.Defense
module View_manager = Perspective.View_manager
module Isv = Perspective.Isv
module Bitset = Pv_util.Bitset

(* One attack machine: a memory system over its backing store and a
   pipeline.  [pipe] changes with every reset, which returns a new handle on
   the same arrays. *)
type machine = { ms : Memsys.t; mutable pipe : Pipeline.t }

(* The calling domain's machines, one per pipeline config, and the
   generation of its newest lab. *)
type home = {
  mutable plain : machine option;
  mutable traced : machine option;
  mutable gen : int;
}

let home_key = Domain.DLS.new_key (fun () -> { plain = None; traced = None; gen = 0 })

type t = {
  phys : Physmem.t;
  m : machine;
  node_of_fid : int -> int option;
  nnodes : int;
  mutable defense : Defense.t option;
  home : home;
  gen : int;
}

let frames = 1024

let traced_config =
  { Pipeline.default_config with trace_events = true; trace_capacity = 65536 }

let create ~prog ~node_of_fid ~nnodes ?(trace = false) () =
  let home = Domain.DLS.get home_key in
  let m =
    match if trace then home.traced else home.plain with
    | Some m ->
      Memsys.reset m.ms;
      m.pipe <- Pipeline.reset m.pipe prog;
      m
    | None ->
      let config = if trace then traced_config else Pipeline.default_config in
      let ms = Memsys.create (Mem.create ()) in
      let m = { ms; pipe = Pipeline.create ~config ms prog } in
      if trace then home.traced <- Some m else home.plain <- Some m;
      m
  in
  home.gen <- home.gen + 1;
  {
    phys = Physmem.create ~frames;
    m;
    node_of_fid;
    nnodes;
    defense = None;
    home;
    gen = home.gen;
  }

(* Every accessor goes through [live]: a lab's machine belongs to the next
   lab created on its domain. *)
let live t =
  if t.gen <> t.home.gen then
    invalid_arg "Lab: stale handle (a later Lab.create reused its machine)";
  t.m

let phys t =
  ignore (live t);
  t.phys

let memsys t = (live t).ms

let pipeline t = (live t).pipe

let alloc t ~owner ~count =
  ignore (live t);
  List.init count (fun _ ->
      match Physmem.alloc_pages t.phys ~order:0 owner with
      | Some f -> Physmem.frame_va f
      | None -> failwith "Lab.alloc: out of frames")

let install t ~scheme ~views =
  let m = live t in
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
      ~memsys:m.ms ()
  in
  t.defense <- Some d;
  Pipeline.set_guard m.pipe (Defense.guard d)

let defense t =
  ignore (live t);
  t.defense

let flush t va = Memsys.flush_line (live t).ms va

let warm t va = ignore (Memsys.data_read (live t).ms va)

let warm_code t ~asid va =
  ignore (Memsys.inst_read (live t).ms (Pv_isa.Layout.phys_key ~asid va))

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
  let ms = (live t).ms in
  let hot = ref [] in
  for s = 255 downto 0 do
    if Memsys.reload_latency ms (transmit + (s * 64)) < hit_threshold then hot := s :: !hot
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

let store t va v = Mem.store (Memsys.mem (live t).ms) va v
