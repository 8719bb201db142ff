(* Attack machines are reused: [Lab.create] resets the calling domain's one
   machine instead of building a new one, and the contract checker streams
   its observations into digests instead of rendering them.

   1. [Pipeline.reset] + [Memsys.reset] restore a machine that ran anything
      to one indistinguishable from a new machine (QCheck over both oracle
      program generators).
   2. Reuse is invisible to every contract cell, traced and untraced, and a
      lab handle dies with the next [Lab.create] on its domain.
   3. The streamed digests equal the digests of the rendered strings. *)

module C = Pv_contracts.Contracts
module Checksum = Pv_util.Checksum
module Rng = Pv_util.Rng
module Mem = Pv_isa.Mem
module Insn = Pv_isa.Insn
module Layout = Pv_isa.Layout
module Program = Pv_isa.Program
module Cache = Pv_uarch.Cache
module Guard = Pv_uarch.Guard
module Memsys = Pv_uarch.Memsys
module Pipeline = Pv_uarch.Pipeline
module Lab = Pv_attacks.Lab
module V1 = Pv_attacks.Spectre_v1
module V2 = Pv_attacks.Spectre_v2
module Rsb = Pv_attacks.Spectre_rsb

let check = Alcotest.check

let generators =
  [ ("", Test_oracle.gen_program); ("wide ", Test_oracle.gen_program_wide) ]

(* --- reset: a reset machine is a new machine --------------------------- *)

let config = { Pipeline.default_config with trace_events = true; trace_capacity = 4096 }

(* Fences every speculative load, so a run under it leaves fence counts,
   fence events and different cache contents behind. *)
let fence_all =
  {
    Guard.allow_all with
    Guard.name = "fence-all";
    check =
      (fun q -> if q.Guard.speculative then Guard.Block Guard.Baseline else Guard.Allow);
  }

(* Everything a run exposes. *)
type view = {
  stream : (int * int) list;
  result : Pipeline.result;
  counters : Pipeline.counters;
  events : string list;
  caches : (string * int * int) list;  (** signature, hits, misses: L1I, L1D, L2 *)
}

let run_view ms pipe =
  let stream = ref [] in
  let hooks =
    {
      Pipeline.null_hooks with
      Pipeline.on_commit = Some (fun fid idx _ -> stream := (fid, idx) :: !stream);
    }
  in
  let result = Pipeline.run ~hooks pipe ~asid:1 ~start:0 in
  {
    stream = List.rev !stream;
    result;
    counters = Pipeline.copy_counters (Pipeline.counters pipe);
    events = List.map Pipeline.event_to_json (Pipeline.events pipe);
    caches =
      List.map
        (fun c -> (Cache.state_signature c, Cache.hits c, Cache.misses c))
        [ Memsys.l1i ms; Memsys.l1d ms; Memsys.l2 ms ];
  }

let fresh prog =
  let ms = Memsys.create (Mem.create ()) in
  run_view ms (Pipeline.create ~config ms prog)

(* Run [a] under [fence_all] for at most [fuel] cycles (so it may stop with
   work in flight), reset, then run [b]. *)
let after_reset ~fuel a b =
  let ms = Memsys.create (Mem.create ()) in
  let pipe = Pipeline.create ~config ms a in
  Pipeline.set_guard pipe fence_all;
  ignore (Pipeline.run ~fuel pipe ~asid:1 ~start:0);
  Memsys.reset ms;
  run_view ms (Pipeline.reset pipe b)

let first_difference x y =
  List.find_opt
    (fun (_, differs) -> differs)
    [
      ("commit stream", x.stream <> y.stream);
      ("result", x.result <> y.result);
      ("counters", x.counters <> y.counters);
      ("events", x.events <> y.events);
      ("caches", x.caches <> y.caches);
    ]

let reset_prop =
  QCheck.Test.make ~name:"run A, reset, run B = run B on a new machine" ~count:20
    QCheck.(triple (int_bound 0xFFFF) (int_bound 0xFFFF) (int_range 1 5000))
    (fun (sa, sb, fuel) ->
      List.iter
        (fun (kind, gen) ->
          let a = gen (Rng.create (0x4E5E7 + sa)) in
          let b = gen (Rng.create (0x4E5E7 + 0x10000 + sb)) in
          match first_difference (after_reset ~fuel a b) (fresh b) with
          | None -> ()
          | Some (what, _) ->
            QCheck.Test.fail_reportf "%sA=%d B=%d fuel=%d: %s differ" kind sa sb fuel what)
        generators;
      true)

(* TAGE and the RAS keep no state that a reset may leave stale, so a used
   and reset one is structurally a new one, down to statistics and slots the
   pipeline never reads back. *)
let test_predictors_reset_to_new () =
  let rng = Rng.create 0x7A6E in
  let tage = Pv_uarch.Tage.create () and ras = Pv_uarch.Ras.create () in
  for _ = 1 to 20_000 do
    let pc = 4 * Rng.int rng 4096 and hist = Rng.int rng 0xFFFF in
    let meta = Pv_uarch.Tage.predict tage ~pc ~hist in
    Pv_uarch.Tage.update tage ~pc ~hist meta ~taken:(Rng.bool rng);
    if Rng.bool rng then Pv_uarch.Ras.push ras pc else ignore (Pv_uarch.Ras.pop ras)
  done;
  Pv_uarch.Tage.reset tage;
  Pv_uarch.Ras.clear ras;
  check Alcotest.bool "TAGE reset = new TAGE" true (tage = Pv_uarch.Tage.create ());
  check Alcotest.bool "RAS clear = new RAS" true (ras = Pv_uarch.Ras.create ())

(* --- one machine per domain --------------------------------------------- *)

let untraced attack ~scheme =
  match attack with
  | "v1-index" -> V1.run ~variant:V1.Array_index ~scheme ()
  | "v1-ptr" -> V1.run ~variant:V1.Pointer_arith ~scheme ()
  | "v1-type" -> V1.run ~variant:V1.Type_confusion ~scheme ()
  | "v2" -> V2.run ~scheme ()
  | "rsb" -> Rsb.run ~scheme ()
  | a -> invalid_arg a

let on_new_domain f = Domain.join (Domain.spawn f)

let test_reuse_invisible () =
  List.iter
    (fun label ->
      let scheme = C.find_scheme label in
      List.iter
        (fun attack ->
          let cell () = (C.check ~attack ~scheme:label (), untraced attack ~scheme) in
          let fresh = on_new_domain cell in
          let reused =
            on_new_domain (fun () ->
                List.iter
                  (fun other ->
                    if other <> attack then begin
                      ignore (C.check ~attack:other ~scheme:label ());
                      ignore (untraced other ~scheme)
                    end)
                  C.attack_names;
                cell ())
          in
          check Alcotest.bool
            (Printf.sprintf "%s under %s: reused machine = new domain's" attack label)
            true (fresh = reused))
        C.attack_names)
    C.scheme_labels

let test_stale_handle () =
  let prog =
    Program.of_funcs
      [ { Program.fid = 0; name = "halt"; space = Layout.User; body = [| Insn.Halt |] } ]
  in
  let create ?trace () = Lab.create ~prog ~node_of_fid:(fun _ -> None) ~nnodes:1 ?trace () in
  let raises name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s on a stale lab did not raise Invalid_argument" name
  in
  let lab = create () in
  ignore (Lab.pipeline lab);
  Lab.store lab 0x1000 1;
  let _next = create ~trace:true () in
  raises "pipeline" (fun () -> Lab.pipeline lab);
  raises "memsys" (fun () -> Lab.memsys lab);
  raises "phys" (fun () -> Lab.phys lab);
  raises "store" (fun () -> Lab.store lab 0x1000 2);
  raises "flush" (fun () -> Lab.flush lab 0x1000);
  let latest = create () in
  check Alcotest.int "the newest lab is live" 0
    (Mem.load (Memsys.mem (Lab.memsys latest)) 0x1000)

(* --- streamed digests = digests of the rendered text -------------------- *)

let streamed f =
  let s = Checksum.create () in
  f s;
  Checksum.hex s

let ints_prop =
  QCheck.Test.make ~name:"add_int = digest of string_of_int" ~count:500 QCheck.int (fun n ->
      List.for_all
        (fun n -> streamed (fun s -> Checksum.add_int s n) = Checksum.digest_hex (string_of_int n))
        [ n; -n; n / 1000; min_int; max_int; 0; -1 ])

let strings_prop =
  QCheck.Test.make ~name:"add_string / add_char = digest of the bytes" ~count:200
    QCheck.(pair string string)
    (fun (a, b) ->
      streamed (fun s ->
          Checksum.add_string s a;
          String.iter (Checksum.add_char s) b)
      = Checksum.digest_hex (a ^ b)
      && Checksum.fnv1a64 (a ^ b) = Int64.of_string ("0x" ^ Checksum.digest_hex (a ^ b)))

let signature_prop =
  QCheck.Test.make ~name:"write_signature = digest of state_signature" ~count:100
    QCheck.(list (int_range (-4096) 1_000_000))
    (fun addrs ->
      let c = Cache.create ~name:"c" ~size_bytes:4096 ~line_bytes:64 ~ways:4 ~latency:1 in
      List.iter (fun a -> ignore (Cache.access c (a * 8))) addrs;
      streamed (fun s -> Cache.write_signature (Checksum.Digest s) c)
      = Checksum.digest_hex (Cache.state_signature c))

let test_events_digest () =
  List.iter
    (fun (kind, gen) ->
      for seed = 1 to 10 do
        let ms = Memsys.create (Mem.create ()) in
        let pipe = Pipeline.create ~config ms (gen (Rng.create (0xE7E + seed))) in
        let digests () =
          ( streamed (fun s -> Pipeline.write_events (Checksum.Digest s) pipe),
            Checksum.digest_hex
              (String.concat "\n" (List.map Pipeline.event_to_json (Pipeline.events pipe))) )
        in
        let empty, empty' = digests () in
        check Alcotest.string "no events" empty' empty;
        Pipeline.set_guard pipe fence_all;
        ignore (Pipeline.run pipe ~asid:1 ~start:0);
        let got, want = digests () in
        check Alcotest.string (Printf.sprintf "%sseed %d" kind seed) want got
      done)
    generators

let suite =
  [
    ( "reset",
      [
        QCheck_alcotest.to_alcotest reset_prop;
        Alcotest.test_case "TAGE and RAS reset to new" `Quick test_predictors_reset_to_new;
        Alcotest.test_case "stale lab handle raises" `Quick test_stale_handle;
        Alcotest.test_case "reuse is invisible to every contract cell" `Slow
          test_reuse_invisible;
      ] );
    ( "checksum.sink",
      [
        QCheck_alcotest.to_alcotest ints_prop;
        QCheck_alcotest.to_alcotest strings_prop;
        QCheck_alcotest.to_alcotest signature_prop;
        Alcotest.test_case "write_events = digest of the JSON lines" `Quick
          test_events_digest;
      ] );
  ]
