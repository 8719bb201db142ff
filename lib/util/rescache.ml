(* Persistent content-addressed result store. See rescache.mli for the
   contract (digest keying, torn-write discipline, corrupt-entry policy,
   shared roots). *)

let format_version = 1

(* Bump this the moment any marshalled result type or measured simulator
   behaviour changes. *)
let code_salt = "pv-rescache-2026-08"

(* Digesting and the hex codec are delegated to Checksum. *)
let digest_hex = Checksum.digest_hex
let hex_of_string = Checksum.hex_of_string
let string_of_hex = Checksum.string_of_hex

(* --- cache handle ------------------------------------------------------ *)

type t = {
  root : string;
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable writes : int;
  mutable write_errors : int;
  mutable corrupt_dropped : int;
  mutable tmp_counter : int;
  mutable warned_write_error : bool;
}

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Every store has the same effective salt. *)
let salt = Printf.sprintf "v%d|%s|" format_version code_salt

let open_dir root =
  mkdir_p root;
  {
    root;
    lock = Mutex.create ();
    hits = 0;
    misses = 0;
    writes = 0;
    write_errors = 0;
    corrupt_dropped = 0;
    tmp_counter = 0;
    warned_write_error = false;
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let entry_path t ~key = Filename.concat t.root (digest_hex (salt ^ "\n" ^ key) ^ ".json")

(* --- envelope ---------------------------------------------------------- *)

(* The salt needs no escaping and the key travels hex-encoded in the
   authoritative field, so only the human-readable "key" needs escaping. *)
let render_envelope ~key payload =
  let b = Buffer.create (512 + (2 * String.length payload)) in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"rescache_version\": %d,\n" format_version);
  Buffer.add_string b (Printf.sprintf "  \"salt\": \"%s\"," salt);
  Buffer.add_char b '\n';
  Buffer.add_string b (Printf.sprintf "  \"key\": %s,\n" (Metrics.json_string key));
  Buffer.add_string b (Printf.sprintf "  \"key_hex\": \"%s\",\n" (hex_of_string key));
  Buffer.add_string b (Printf.sprintf "  \"payload_digest\": \"%s\",\n" (digest_hex payload));
  Buffer.add_string b (Printf.sprintf "  \"payload_hex\": \"%s\"\n" (hex_of_string payload));
  Buffer.add_string b "}\n";
  Buffer.contents b

(* Extract the string value of ["field": "..."] from a flat envelope. The
   values we look up never contain escaped quotes (the salt has none, hex
   fields are [0-9a-f]), so scanning to the closing quote is exact. *)
let extract_string body ~field =
  let pat = Printf.sprintf "\"%s\": \"" field in
  let plen = String.length pat in
  let blen = String.length body in
  let rec find i =
    if i + plen > blen then None
    else if String.sub body i plen = pat then
      let start = i + plen in
      match String.index_from_opt body start '"' with
      | Some stop -> Some (String.sub body start (stop - start))
      | None -> None
    else find (i + 1)
  in
  find 0

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let n = in_channel_length ic in
        Some (really_input_string ic n))
  with Sys_error _ | End_of_file -> None

(* Parse an envelope; [Ok payload] only when every check passes for the
   salt and the stored key equals [key]. [Error `Corrupt] covers damage and
   salt/version mismatch (both are dropped); [Error `Other_key] is a digest
   collision — an honest miss that must NOT delete the file. *)
let parse_envelope ~key body =
  match
    ( extract_string body ~field:"salt",
      extract_string body ~field:"key_hex",
      extract_string body ~field:"payload_digest",
      extract_string body ~field:"payload_hex" )
  with
  | Some stored_salt, Some key_hex, Some payload_digest, Some payload_hex -> (
      if stored_salt <> salt then Error `Corrupt
      else
        match (string_of_hex key_hex, string_of_hex payload_hex) with
        | Some stored_key, Some payload ->
            if stored_key <> key then Error `Other_key
            else if digest_hex payload <> payload_digest then Error `Corrupt
            else Ok payload
        | _ -> Error `Corrupt)
  | _ -> Error `Corrupt

let find (type a) t ~key : a option =
  let path = entry_path t ~key in
  with_lock t (fun () ->
      match read_file path with
      | None ->
          t.misses <- t.misses + 1;
          None
      | Some body -> (
          match parse_envelope ~key body with
          | Ok payload -> (
              match (Marshal.from_string payload 0 : a) with
              | v ->
                  t.hits <- t.hits + 1;
                  Some v
              | exception _ ->
                  (try Sys.remove path with Sys_error _ -> ());
                  t.corrupt_dropped <- t.corrupt_dropped + 1;
                  t.misses <- t.misses + 1;
                  None)
          | Error `Other_key ->
              t.misses <- t.misses + 1;
              None
          | Error `Corrupt ->
              (try Sys.remove path with Sys_error _ -> ());
              t.corrupt_dropped <- t.corrupt_dropped + 1;
              t.misses <- t.misses + 1;
              None))

(* Temp files of in-flight (or killed) stores are not entries. *)
let entries t =
  match Sys.readdir t.root with
  | exception Sys_error _ -> 0
  | names ->
      Array.fold_left
        (fun n name -> if Filename.check_suffix name ".json" then n + 1 else n)
        0 names

let note_write_error t ~what msg =
  t.write_errors <- t.write_errors + 1;
  if not t.warned_write_error then begin
    t.warned_write_error <- true;
    Printf.eprintf
      "rescache: warning: a write to %s failed (%s: %s); the store is degraded, \
       results are unaffected (counted as write_errors)\n%!"
      t.root what msg
  end

let tmp_path t =
  t.tmp_counter <- t.tmp_counter + 1;
  Filename.concat t.root (Printf.sprintf ".tmp.%d.%d" (Unix.getpid ()) t.tmp_counter)

(* Write [body] to a temp file and rename it over [path]; [true] once the
   entry is in place.  Failures are counted and warned about, never
   raised. *)
let write_entry t ~path body =
  with_lock t (fun () ->
      let tmp = tmp_path t in
      match
        let oc = open_out_bin tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc body);
        Unix.rename tmp path
      with
      | () ->
          t.writes <- t.writes + 1;
          true
      | exception Sys_error msg ->
          (try Sys.remove tmp with Sys_error _ -> ());
          note_write_error t ~what:"store" msg;
          false
      | exception Unix.Unix_error (err, fn, _) ->
          (try Sys.remove tmp with Sys_error _ -> ());
          note_write_error t ~what:fn (Unix.error_message err);
          false)

(* Put a hard link to the entry file [src] at [path], through a temp name
   so an existing entry is replaced atomically; [false] on any error (no
   hard links, another filesystem, [src] gone), for the caller to write
   the entry instead. *)
let link_entry t ~src ~path =
  with_lock t (fun () ->
      let tmp = tmp_path t in
      match
        Unix.link src tmp;
        Unix.rename tmp path
      with
      | () ->
          t.writes <- t.writes + 1;
          true
      | exception Unix.Unix_error _ ->
          (try Sys.remove tmp with Sys_error _ -> ());
          false)

(* [src = path]: two handles on one directory (say --cache D --checkpoint
   D); renaming a link over its own file would leave the temp name behind. *)
let store_all ts ~key v =
  let payload = Marshal.to_string v [] in
  ignore
    (List.fold_left
       (fun written t ->
         let path = entry_path t ~key in
         match written with
         | Some src when src = path || link_entry t ~src ~path -> written
         | _ -> if write_entry t ~path (render_envelope ~key payload) then Some path else written)
       None ts)

let store t ~key v = store_all [ t ] ~key v

let report ?(out = stderr) t =
  with_lock t (fun () ->
      Printf.fprintf out
        "rescache: hits=%d misses=%d writes=%d write_errors=%d corrupt_dropped=%d dir=%s\n%!"
        t.hits t.misses t.writes t.write_errors t.corrupt_dropped t.root)
