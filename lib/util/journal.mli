(** Append-only log of checksummed [(key, value)] records.

    A journal is the magic header ([pvjrnl2] + newline) followed by one
    frame per record: a 4-byte little-endian payload length, an 8-byte
    little-endian FNV-1a 64 checksum of the payload, and the payload (one
    marshalled [(key, value)] pair).  The library no longer reads journals:
    checkpoints are {!Rescache} stores.  The writer stays for the benchmark,
    whose trace pass times appends. *)

type writer

val open_writer : string -> writer
(** Create (or truncate) the file and write the header. *)

val append : writer -> key:string -> 'a -> unit
(** Append one record and flush.  Safe to call from multiple domains. *)

val close : writer -> unit
