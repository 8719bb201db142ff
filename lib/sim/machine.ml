module Insn = Pv_isa.Insn
module Layout = Pv_isa.Layout
module Program = Pv_isa.Program
module Mem = Pv_isa.Mem
module Iss = Pv_isa.Iss
module Memsys = Pv_uarch.Memsys
module Pipeline = Pv_uarch.Pipeline
module Kernel = Pv_kernel.Kernel
module Kimage = Pv_kernel.Kimage
module Process = Pv_kernel.Process
module Physmem = Pv_kernel.Physmem
module Trace = Pv_kernel.Trace
module Codegen = Pv_kernel.Codegen
module Callgraph = Pv_kernel.Callgraph
module Rng = Pv_util.Rng

type handle = {
  proc : Process.t;
  build : base_fid:int -> Program.func list;
  entry_rel : int;
  mutable base_fid : int;
  mutable entry_fid_v : int;
  mutable table_frame : int;
  tables : (int, int) Hashtbl.t; (* syscall nr -> r13 VA *)
}

type t = {
  seed : int;
  kernel : Kernel.t;
  kimage : Kimage.t;
  pipe_config : Pipeline.config;
  rng : Rng.t;
  mutable handles : handle list; (* reversed *)
  mutable frozen :
    (Program.t * Memsys.t * Pipeline.t) option;
  mutable defense : Perspective.Defense.t option;
  mutable vm : Perspective.View_manager.t;
  seeded : (int, unit) Hashtbl.t;
  mutable pending_ret : int;
}

let create ?(pipe_config = Pipeline.default_config) ~seed ~syscalls () =
  let kernel = Kernel.create ~seed () in
  let kimage = Kimage.build (Kernel.graph kernel) ~seed ~fid_base:0 ~syscalls in
  {
    seed;
    kernel;
    kimage;
    pipe_config;
    rng = Rng.create (seed lxor 0x6D616368);
    handles = [];
    frozen = None;
    defense = None;
    vm =
      Perspective.View_manager.create
        ~nnodes:(Callgraph.nnodes (Kernel.graph kernel))
        ~oracle:(fun ~ctx:_ ~page:_ -> false);
    seeded = Hashtbl.create 256;
    pending_ret = 0;
  }

let kernel t = t.kernel
let kimage t = t.kimage

let add_process t ~name ~user_funcs ~entry =
  if t.frozen <> None then invalid_arg "Machine.add_process: already frozen";
  let proc = Kernel.spawn t.kernel ~name in
  let h =
    {
      proc;
      build = user_funcs;
      entry_rel = entry;
      base_fid = -1;
      entry_fid_v = -1;
      table_frame = -1;
      tables = Hashtbl.create 8;
    }
  in
  t.handles <- h :: t.handles;
  h

let process h = h.proc

let frozen_exn t =
  match t.frozen with
  | Some f -> f
  | None -> invalid_arg "Machine: freeze must be called first"

let pipeline t = let _, _, p = frozen_exn t in p
let memsys t = let _, m, _ = frozen_exn t in m
let mem t = Memsys.mem (memsys t)

let seed_frame t frame =
  if not (Hashtbl.mem t.seeded frame) then begin
    Hashtbl.replace t.seeded frame ();
    Codegen.seed_page (mem t) t.rng (Physmem.frame_va frame)
  end

let alloc_frame_for t h =
  match
    Physmem.alloc_pages (Kernel.phys t.kernel) ~order:0
      (Physmem.Cgroup (Process.cgroup h.proc))
  with
  | Some f -> f
  | None -> failwith "Machine: out of physical memory"

let setup_tables t h =
  let realized = Kimage.realized_syscalls t.kimage in
  let with_tables =
    List.filter
      (fun nr ->
        match Kimage.desc t.kimage nr with
        | Some d -> Array.length d.Kimage.table_nodes > 0
        | None -> false)
      realized
  in
  if List.length with_tables > Layout.page_bytes / 64 then
    invalid_arg "Machine: too many dispatch tables for one page";
  h.table_frame <- alloc_frame_for t h;
  let base = Physmem.frame_va h.table_frame in
  List.iteri
    (fun k nr ->
      match Kimage.desc t.kimage nr with
      | None -> ()
      | Some d ->
        let tva = base + (k * 64) in
        Hashtbl.replace h.tables nr tva;
        Array.iteri
          (fun slot node ->
            match Kimage.fid_of_node t.kimage node with
            | Some fid ->
              let target_va = Layout.func_base Layout.Kernel fid in
              Mem.store (mem t) (tva + (slot * 8)) target_va
            | None -> ())
          d.Kimage.table_nodes)
    with_tables

let freeze t =
  if t.frozen <> None then invalid_arg "Machine.freeze: already frozen";
  let handles = List.rev t.handles in
  if handles = [] then invalid_arg "Machine.freeze: no processes";
  let kernel_funcs = Kimage.funcs t.kimage in
  let next = ref (Kimage.next_fid t.kimage) in
  let user_funcs =
    List.concat_map
      (fun h ->
        let base = !next in
        h.base_fid <- base;
        let funcs = h.build ~base_fid:base in
        List.iteri
          (fun i f ->
            if f.Program.fid <> base + i then
              invalid_arg "Machine.freeze: user fids must be dense from base_fid")
          funcs;
        h.entry_fid_v <- base + h.entry_rel;
        next := base + List.length funcs;
        funcs)
      handles
  in
  let prog = Program.of_funcs (kernel_funcs @ user_funcs) in
  let memory = Mem.create () in
  let ms = Memsys.create memory in
  let pipe = Pipeline.create ~config:t.pipe_config ms prog in
  t.frozen <- Some (prog, ms, pipe);
  (* Seed kernel-shared data and per-process working sets; build dispatch
     tables. *)
  let shared_frame =
    match Physmem.frame_of_va (Kernel.shared_base t.kernel) with
    | Some f -> f
    | None -> assert false
  in
  for i = 0 to 3 do
    seed_frame t (shared_frame + i)
  done;
  List.iter
    (fun h ->
      Array.iter (seed_frame t) (Process.data_frames h.proc);
      setup_tables t h)
    handles

(* Tracing sees exactly what executes: the syscall entry, its realized
   helpers and the dispatch target selected by this invocation's variant. *)
let record_dispatch t h nr variant =
  match Kimage.desc t.kimage nr with
  | Some d ->
    let ctx = Process.cgroup h.proc in
    let record node = Trace.record_node (Kernel.trace t.kernel) ~ctx node in
    record d.Kimage.entry_node;
    List.iter
      (fun fid ->
        match Kimage.node_of_fid t.kimage fid with Some n -> record n | None -> ())
      d.Kimage.helper_fids;
    if Array.length d.Kimage.table_nodes > 0 then
      record d.Kimage.table_nodes.(variant land (Kimage.table_slots - 1))
  | None -> ()

let profile t h ~workload ~repetitions =
  for _ = 1 to repetitions do
    List.iter
      (fun (nr, args) ->
        let eff = Kernel.exec_syscall t.kernel h.proc ~nr ~args in
        record_dispatch t h nr eff.Kernel.variant)
      workload
  done

let defense t = t.defense

let install_defense t ?(gadget_nodes = []) ?(block_unknown = true)
    ?(isv_cache_entries = 128) ?(dsv_cache_entries = 128) scheme =
  let graph = Kernel.graph t.kernel in
  let phys = Kernel.phys t.kernel in
  let oracle ~ctx ~page =
    match Physmem.owner_of phys page with
    | Some (Physmem.Cgroup c) -> c = ctx
    | Some Physmem.Kernel | Some Physmem.Unknown | None -> false
  in
  let vm = Perspective.View_manager.create ~nnodes:(Callgraph.nnodes graph) ~oracle in
  t.vm <- vm;
  let handles = List.rev t.handles in
  List.iter
    (fun h ->
      let ctx = Process.cgroup h.proc in
      let used =
        match Trace.syscalls_used (Kernel.trace t.kernel) ~ctx with
        | [] -> Kimage.realized_syscalls t.kimage
        | l -> l
      in
      let isv =
        match scheme with
        | Perspective.Defense.Perspective Perspective.Isv.Static ->
          Pv_isvgen.Static_isv.generate graph ~syscalls:used
        | Perspective.Defense.Perspective Perspective.Isv.Dynamic ->
          Pv_isvgen.Dynamic_isv.generate t.kernel ~ctx
        | Perspective.Defense.Perspective Perspective.Isv.Plus ->
          Pv_isvgen.Audit.harden (Pv_isvgen.Dynamic_isv.generate t.kernel ~ctx) ~gadget_nodes
        | Perspective.Defense.Perspective Perspective.Isv.All
        | Perspective.Defense.Unsafe | Perspective.Defense.Fence
        | Perspective.Defense.Dom | Perspective.Defense.Stt
        | Perspective.Defense.Safespec | Perspective.Defense.Specbox ->
          Perspective.Isv.all ~nnodes:(Callgraph.nnodes graph)
      in
      Perspective.View_manager.register vm ~asid:(Process.asid h.proc) ~ctx ~isv)
    handles;
  let d =
    Perspective.Defense.build ~scheme ~vm
      ~node_of_fid:(Kimage.node_of_fid t.kimage)
      ~block_unknown ~isv_cache_entries ~dsv_cache_entries ~memsys:(memsys t) ()
  in
  t.defense <- Some d;
  Pipeline.set_guard (pipeline t) (Perspective.Defense.guard d)

let hooks_for ?on_commit t h =
  let on_syscall regs =
    let nr = regs.(0) in
    if nr < 0 || nr >= Pv_kernel.Sysno.count then Iss.Skip
    else begin
      let args = [| regs.(1); regs.(2); regs.(3) |] in
      let eff = Kernel.exec_syscall t.kernel h.proc ~nr ~args in
      List.iter (seed_frame t) eff.Kernel.new_frames;
      (match t.defense with
      | Some d ->
        List.iter
          (fun frame -> Perspective.Defense.note_freed_page d ~page:frame)
          eff.Kernel.freed_frames
      | None -> ());
      record_dispatch t h nr eff.Kernel.variant;
      t.pending_ret <- eff.Kernel.ret;
      match Kimage.desc t.kimage nr with
      | Some d ->
        let r13 =
          match Hashtbl.find_opt h.tables nr with
          | Some va -> va
          | None -> Kernel.shared_base t.kernel
        in
        Iss.Redirect
          ( d.Kimage.entry_fid,
            [
              (8, eff.Kernel.data_va);
              (9, Kernel.shared_base t.kernel);
              (10, Kernel.unknown_base t.kernel);
              (11, eff.Kernel.trips);
              (12, eff.Kernel.variant);
              (13, r13);
            ] )
      | None ->
        regs.(15) <- eff.Kernel.ret;
        Iss.Skip
    end
  in
  let on_sysret regs =
    regs.(15) <- t.pending_ret;
    Iss.Skip
  in
  { Pipeline.on_syscall; on_sysret; on_commit }

let run ?fuel ?regs ?on_commit t h =
  let pipe = pipeline t in
  (* The machine-level watchdog: a full run spans many syscalls, so its
     default budget is twice the pipeline's per-run [max_cycles] (with the
     stock config that is the historical 40M-cycle ceiling). *)
  let fuel =
    match fuel with Some f -> f | None -> 2 * (Pipeline.config pipe).Pipeline.max_cycles
  in
  let before = Pipeline.copy_counters (Pipeline.counters pipe) in
  let result =
    Pipeline.run ?regs ~fuel ~hooks:(hooks_for ?on_commit t h) pipe ~asid:(Process.asid h.proc)
      ~start:h.entry_fid_v
  in
  let delta = Pipeline.diff_counters (Pipeline.counters pipe) before in
  (result, delta)

(* --- structured run outcomes ----------------------------------------- *)

exception Run_timeout of { name : string; cycles : int; committed : int }
exception Run_fault of { name : string; msg : string }

let () =
  Printexc.register_printer (function
    | Run_timeout { name; cycles; committed } ->
      Some
        (Printf.sprintf "%s: watchdog timeout after %d cycles (%d committed)" name cycles
           committed)
    | Run_fault { name; msg } -> Some (Printf.sprintf "%s: machine fault: %s" name msg)
    | _ -> None)

let check_result ~name (r : Pipeline.result) =
  match r.Pipeline.outcome with
  | Pipeline.Halted -> ()
  | Pipeline.Out_of_fuel ->
    raise
      (Run_timeout { name; cycles = r.Pipeline.cycles; committed = r.Pipeline.committed })
  | Pipeline.Fault msg -> raise (Run_fault { name; msg })

(* --- self-contained runs ---------------------------------------------- *)

(* Functional profiling passes before the defense is installed, so dynamic
   ISVs see the workload's trace. *)
let profile_reps = 25

(* Every mutable part of the run is created here, so any process or domain
   can run it; runs of one seed share only that seed's immutable call
   graph. *)
let run_job ?fuel ?on_commit ?pipe_config ?block_unknown ?(view_cache_entries = 128) ~seed
    ~syscalls ~name ~user_funcs ~profile:workload scheme =
  let m = create ?pipe_config ~seed ~syscalls () in
  let h = add_process m ~name ~user_funcs ~entry:0 in
  freeze m;
  profile m h ~workload ~repetitions:profile_reps;
  let gadget_nodes =
    if scheme = Perspective.Defense.Perspective Perspective.Isv.Plus then
      Pv_scanner.Gadgets.nodes (Pv_scanner.Gadgets.plant (Kernel.graph m.kernel) ~seed)
    else []
  in
  install_defense m ~gadget_nodes ?block_unknown ~isv_cache_entries:view_cache_entries
    ~dsv_cache_entries:view_cache_entries scheme;
  let result, delta = run ?fuel ?on_commit m h in
  (m, h, result, delta)
