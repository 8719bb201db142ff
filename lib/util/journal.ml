(* Append-only checksummed record log; the framing is in journal.mli. *)

type writer = { ch : out_channel; lock : Mutex.t }

let open_writer path =
  let ch = open_out_bin path in
  output_string ch "pvjrnl2\n";
  flush ch;
  { ch; lock = Mutex.create () }

let append w ~key v =
  let payload = Marshal.to_string (key, v) [] in
  let n = String.length payload in
  let b = Bytes.create (12 + n) in
  Bytes.set_int32_le b 0 (Int32.of_int n);
  Bytes.set_int64_le b 4 (Checksum.fnv1a64 payload);
  Bytes.blit_string payload 0 b 12 n;
  Mutex.protect w.lock (fun () ->
      output_bytes w.ch b;
      flush w.ch)

let close w = Mutex.protect w.lock (fun () -> close_out w.ch)
