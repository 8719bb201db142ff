(* Append-only journal of checksummed (key, value) records — the FSCQ-style
   framing: a file-level magic header, then one frame per record of

       length (4 bytes LE) | FNV-1a 64 of payload (8 bytes LE) | payload

   where payload is one Marshal block of [(key, value)].  Recovery trusts
   exactly the checksummed prefix: scanning stops at the first frame whose
   header is short, whose length is implausible, whose payload is short, or
   whose checksum does not match — everything from that point on is
   quarantined (copied to <path>.quarantine by the next writer, never
   parsed).  This is strictly stronger than the PR 2/3 format, which could
   only detect a torn *tail* (Marshal parse failure) and would silently
   accept a bit-flip that still unmarshalled. *)

let magic = "pvjrnl2\n"
let magic_len = String.length magic

(* Sanity bound on the length field: a frame larger than this is damage
   (a flipped high bit), not a record. *)
let max_record = 1 lsl 28

exception Incompatible of string

let () =
  Printexc.register_printer (function
    | Incompatible msg -> Some (Printf.sprintf "incompatible journal: %s" msg)
    | _ -> None)

type writer = { ch : out_channel; lock : Mutex.t; path : string }

let frame ~key v =
  let payload = Marshal.to_string (key, v) [] in
  let n = String.length payload in
  let b = Bytes.create (12 + n) in
  Bytes.set_int32_le b 0 (Int32.of_int n);
  Bytes.set_int64_le b 4 (Checksum.fnv1a64 payload);
  Bytes.blit_string payload 0 b 12 n;
  Bytes.unsafe_to_string b

(* The old (PR 2..6) format was a bare sequence of Marshal blocks; its first
   bytes are OCaml's marshal magic.  Recognizing it turns "garbage" into a
   one-line migration diagnostic. *)
let looks_marshalled body =
  String.length body >= 3
  && body.[0] = '\x84' && body.[1] = '\x95' && body.[2] = '\xa6'

type 'a scanned = {
  s_records : (string * 'a) list;  (** verified records, in write order *)
  s_clean : int;  (** byte offset just past the last verified record *)
  s_body : string;  (** the raw file bytes *)
}

(* Scan the whole file, verifying every frame.  Raises [Incompatible] when
   the file is not a checksummed journal at all (wrong or missing magic on a
   file big enough to carry one); a file shorter than the magic is treated
   as a fully torn journal (clean prefix of zero records). *)
let scan path : _ scanned =
  if not (Sys.file_exists path) then { s_records = []; s_clean = 0; s_body = "" }
  else begin
    let body =
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let len = String.length body in
    if len = 0 then { s_records = []; s_clean = 0; s_body = body }
    else if len < magic_len then
      (* a kill during the very first header write *)
      { s_records = []; s_clean = 0; s_body = body }
    else if String.sub body 0 magic_len <> magic then
      raise
        (Incompatible
           (if looks_marshalled body then
              Printf.sprintf
                "%S uses the pre-checksum journal format (bare Marshal records); \
                 it cannot be resumed safely — delete it and re-run"
                path
            else Printf.sprintf "%S is not a journal (missing %S header)" path magic))
    else begin
      let rec go acc off =
        if off + 12 > len then (List.rev acc, off)
        else
          let n = Int32.to_int (String.get_int32_le body off) in
          if n < 0 || n > max_record || off + 12 + n > len then (List.rev acc, off)
          else
            let payload = String.sub body (off + 12) n in
            if Checksum.fnv1a64 payload <> String.get_int64_le body (off + 4) then
              (List.rev acc, off)
            else
              match (Marshal.from_string payload 0 : string * _) with
              | kv -> go (kv :: acc) (off + 12 + n)
              | exception _ ->
                (* checksum ok but unparseable: a writer bug, not damage —
                   still never trusted *)
                (List.rev acc, off)
      in
      let records, clean = go [] magic_len in
      { s_records = records; s_clean = clean; s_body = body }
    end
  end

let quarantine_path path = path ^ ".quarantine"

let open_writer path =
  let { s_clean; s_body; _ } = scan path in
  let size = String.length s_body in
  (* Quarantine, then truncate away, everything after the checksummed
     prefix: the bytes are preserved for post-mortems but will never be
     parsed, and appends land on a frame boundary. *)
  let clean = if s_clean < magic_len then 0 else s_clean in
  if size > clean then begin
    (try
       let oc = open_out_bin (quarantine_path path) in
       Fun.protect
         ~finally:(fun () -> close_out_noerr oc)
         (fun () -> output_string oc (String.sub s_body clean (size - clean)))
     with Sys_error _ -> ());
    Unix.truncate path clean
  end;
  let ch = open_out_gen [ Open_wronly; Open_creat; Open_binary ] 0o644 path in
  seek_out ch clean;
  if clean = 0 then begin
    output_string ch magic;
    flush ch
  end;
  { ch; lock = Mutex.create (); path }

let append w ~key v =
  let fr = frame ~key v in
  Mutex.lock w.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.lock)
    (fun () ->
      output_string w.ch fr;
      flush w.ch)

let append_torn w ~key v =
  let fr = frame ~key v in
  let cut = 12 + ((String.length fr - 12) / 2) in
  Mutex.lock w.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.lock)
    (fun () ->
      output_string w.ch (String.sub fr 0 cut);
      flush w.ch)

let close w =
  Mutex.lock w.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock w.lock) (fun () -> close_out w.ch)

let path w = w.path

let load p = (scan p).s_records

let load_table p =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) (load p);
  tbl

type resume_status =
  | Missing
  | Unusable of string
  | Usable of { records : int; distinct : int }

let resume_status path =
  match Unix.stat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> Missing
  | exception Unix.Unix_error (err, _, _) -> Unusable (Unix.error_message err)
  | st ->
    if st.Unix.st_size = 0 then Unusable "checkpoint file is empty"
    else begin
      match scan path with
      | { s_records = []; _ } ->
        Unusable "checkpoint contains no complete record (fully torn?)"
      | { s_records; _ } ->
        let keys = List.map fst s_records in
        Usable
          {
            records = List.length keys;
            distinct = List.length (List.sort_uniq compare keys);
          }
      | exception Incompatible msg -> Unusable msg
      | exception Sys_error msg -> Unusable msg
    end
