(** FNV-1a 64-bit checksums and the hex codec of the persistence layer
    ({!Journal} record framing, {!Rescache} entry digests, payload
    checksums and envelope fields), and the streaming digest the contract
    checker folds its observations into.

    FNV-1a is not cryptographic; it is an integrity check against torn
    writes, bit rot and truncation, chosen because it is tiny, allocation
    free and byte-for-byte reproducible across platforms — the same reasons
    the result cache already used it for content addressing. *)

(** {1 Streaming digest} *)

type t
(** A running FNV-1a 64 hash.  Folding a byte allocates nothing. *)

val create : unit -> t
(** The hash of no bytes (the FNV offset basis). *)

val add_char : t -> char -> unit
val add_string : t -> string -> unit

val add_int : t -> int -> unit
(** Fold the decimal text of [n] as [string_of_int n] writes it, a leading
    ['-'] included for negative numbers; [min_int] too. *)

val hex : t -> string
(** The hash so far as 16 lowercase hex characters. *)

(** {1 Renderers}

    A format with both a string form and a digest form has one writer over
    a [sink]: the same bytes go to a buffer or straight into a hash, so the
    digest of the rendered string and the streamed digest cannot differ. *)

type sink = Digest of t | Text of Buffer.t

val put_char : sink -> char -> unit
val put_string : sink -> string -> unit
val put_int : sink -> int -> unit
(** As {!add_int} for [Digest]; [string_of_int] for [Text]. *)

val render : (sink -> 'a -> unit) -> 'a -> string
(** [render write x] is the text [write] produces for [x]. *)

(** {1 Whole strings} *)

val fnv1a64 : string -> int64
(** The FNV-1a 64-bit hash of the bytes of [s]. *)

val digest_hex : string -> string
(** {!fnv1a64} rendered as 16 lowercase hex characters (filename-safe). *)

val hex_of_string : string -> string
(** Lowercase hex encoding of arbitrary bytes (2 chars per byte). *)

val string_of_hex : string -> string option
(** Inverse of {!hex_of_string}; [None] on odd length or a non-hex digit. *)
